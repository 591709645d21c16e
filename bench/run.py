#!/usr/bin/env python3
"""Benchmark for the ``repro`` smishing pipeline.

Run from the root of a checkout (the directory holding ``src/repro``):

    python3 bench/run.py --workload batch-480 --seed 3 --seconds 40 --trace 0

A run's input is a fixed set of worlds generated from ``--seed`` (see
``workloads.world_seeds``). Jobs cycle through the worlds, each on a
freshly built world whose set-up is timed apart from the job, until
``--seconds`` of job time has been measured (at least one job per
world). The figures describe one round, one job per world, at the run's
cost per item of work. Every job's output digest is checked against
``reference.json`` (when it holds that world) and against the run's
earlier jobs of its family on the same world; a mismatch fails the job
and drops its timings.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs one
round untraced, the same round traced, and the workload's extra jobs
(``workloads.Extra``), and prints the per-layer metrics after a
self-time table with an explicit uncovered-time line. The last
stdout line is always one JSON object: ``correct``, ``attempted`` and
``failed`` (jobs) and ``metrics`` (name -> value + unit).

``--write-reference SEEDS`` (e.g. ``0-20,9001``) recomputes the stored
digests of those runs' worlds instead. See ``README.md`` for the
workloads, the metrics and what each layer metric should move.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional

BENCH_DIR = Path(__file__).resolve().parent
REFERENCE = BENCH_DIR / "reference.json"
WORKLOAD_NAMES = ("batch-480", "serve-repeat")
#: Not used while the benchmark was tuned; validate later claims on it.
HELD_OUT_SEED = 9001
#: Set-up is sampled at least this often per untraced run.
MIN_SETUPS = 2
#: The eight metered enrichment services.
METERS = ("hlr", "whois", "crtsh", "spamhaus-pdns", "ipinfo", "virustotal",
          "gsb", "openai")
#: Layers whose self time the traced run reports, in pipeline order.
LAYERS = ("core", "collect", "quarantine", "curate", "nlp", "exec", "svc",
          "enrich", "analysis", "serve", "stream", "persist")


def median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def percentile(values: List[float], q: float) -> float:
    """Linear-interpolated (type 7) percentile; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    position = (len(ordered) - 1) * q
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


@dataclass
class Job:
    world_seed: int
    setup_s: float
    wall_s: float
    outcome: Any
    family: str
    ok: bool = True
    #: Additive per-layer sums and raw durations of a traced job.
    sums: Dict[str, float] = field(default_factory=dict)
    durations: Dict[str, List[float]] = field(default_factory=dict)


def run_job(workload, world_seed: int, scale: float, traced: bool) -> Job:
    import hooks
    from repro.obs import MetricsRegistry, Telemetry

    gc.collect()
    hooks.COUNTS.clear()
    installed = setup_tracer = job_tracer = telemetry = None
    if traced:
        installed = hooks.install_tracing()
        setup_tracer, job_tracer = hooks.LayerTracer(), hooks.LayerTracer()
        telemetry = Telemetry(tracer=job_tracer, metrics=MetricsRegistry(),
                              enabled=True)
        hooks.set_active(setup_tracer)
    try:
        start = time.perf_counter()
        ctx = workload.setup(world_seed, scale, telemetry)
        setup_s = time.perf_counter() - start
        hooks.set_active(job_tracer)
        start = time.perf_counter()
        product = workload.run(ctx)
        wall_s = time.perf_counter() - start
    finally:
        hooks.set_active(None)
        if installed is not None:
            installed.uninstall()
    try:
        outcome = workload.outcome(ctx, product)
    finally:
        workload.cleanup(ctx)
    job = Job(world_seed, setup_s, wall_s, outcome, workload.family)
    if traced:
        job.sums = layer_sums(job, setup_tracer, job_tracer, telemetry,
                              Counter(hooks.COUNTS))
        job.durations = {name: list(values)
                         for name, values in job_tracer.durations.items()}
        if installed.missing:
            print("bench: hook targets absent in this version: "
                  + ", ".join(installed.missing), file=sys.stderr)
    return job


# -- per-layer figures --------------------------------------------------------

def _counter_sum(telemetry, name: str, **labels: str) -> float:
    return sum(c.value for c in telemetry.metrics.counters()
               if c.name == name and all(c.labels.get(k) == v
                                         for k, v in labels.items()))


def layer_sums(job: Job, setup_tracer, tracer, telemetry,
               counts: Counter) -> Dict[str, float]:
    """The additive per-layer figures of one traced job: counts, and
    times in seconds. Ratios and percentiles are derived from these once
    a round's jobs are merged (:func:`layer_figures`)."""
    from workloads import SHED_REASONS

    total, calls, probe = tracer.total, tracer.calls, job.outcome.probe
    cache = telemetry.cache_snapshot.get("totals", {})
    sums: Dict[str, float] = {
        "world.build_s": setup_tracer.total["world.build"],
        "world.posts": probe["world.posts"],
        "collect.busy_s": tracer.busy_by_layer["collect"],
        "collect.posts_seen": _counter_sum(telemetry,
                                           "collection.posts_seen"),
        "collect.reports": _counter_sum(telemetry, "collection.reports"),
        "quarantine.busy_s": tracer.busy_by_layer["quarantine"],
        "quarantine.screened": calls["quarantine.screen"],
        "quarantine.quarantined": counts["quarantine.quarantined"],
        "curate.busy_s": tracer.busy_by_layer["curate"],
        "curate.calls": calls["curate"],
        "curate.reports_in": _counter_sum(telemetry, "curation.reports_in"),
        "curate.records_out": _counter_sum(telemetry,
                                           "curation.records_out"),
        "nlp.annotate_calls": calls["nlp.annotate"],
        "nlp.annotate_s": total["nlp.annotate"],
        "nlp.langdetect_s": total["nlp.langdetect"],
        "nlp.translate_s": total["nlp.translate"],
        "nlp.brand_ner_calls": calls["nlp.brand_ner"],
        "nlp.brand_ner_s": total["nlp.brand_ner"],
        "nlp.squash_calls": counts["nlp.squash"],
        "nlp.scamtype_s": total["nlp.scamtype"],
        "nlp.lures_s": total["nlp.lures"],
        "exec.cache_hits": cache.get("hits", 0),
        "exec.cache_misses": cache.get("misses", 0),
        "exec.pool_tasks": telemetry.exec_snapshot.get("tasks", 0),
        "exec.pool_busy_s": telemetry.exec_snapshot.get("busy_seconds", 0.0),
        "enrich.precompute_s": total["enrich/precompute"],
        "enrich.replay_s": (total["enrich/senders"] + total["enrich/urls"]
                            + total["enrich/annotate"]),
        "enrich.unique_texts": tracer.attributes[
            "enrich/precompute:unique_texts"],
        "enrich.unique_urls": tracer.attributes[
            "enrich/precompute:unique_urls"],
        "enrich.lookups": counts["svc.call"],
        "enrich.gaps": probe["enrich.gaps"],
    }
    for meter in METERS:
        sums[f"svc.{meter}.requests"] = _counter_sum(
            telemetry, "service.requests", service=meter)
        sums[f"svc.{meter}.retries"] = _counter_sum(
            telemetry, "service.retries", service=meter)
        sums[f"svc.{meter}.backoff_sim_s"] = _counter_sum(
            telemetry, "service.backoff_seconds", service=meter)
    sums.update({
        "analysis.tables_s": total["analysis.tables"],
        "analysis.case_study_s": total["analysis.case_study"],
        "analysis.evaluation_s": total["analysis.evaluation"],
        "analysis.render_s": total["analysis.render"],
        "serve.dispatch_calls": calls["serve.dispatch"],
        "serve.batches": calls["serve/batch"],
        "serve.degrade_refresh_calls": calls["serve.degrade_refresh"],
        "serve.degrade_refresh_s": total["serve.degrade_refresh"],
    })
    for key in ([f"serve.shed.{reason}" for reason in SHED_REASONS]
                + ["serve.timed_out", "serve.ledger_hits",
                   "serve.ledger_misses", "stream.ledger_hits",
                   "stream.ledger_misses"]):
        sums[key] = probe.get(key, 0)
    sums.update({
        "stream.epochs": calls["stream/epoch"],
        "persist.fsync_calls": calls["persist.fsync"],
        "persist.bytes_written": counts["persist.bytes"],
        "persist.pickle_s": total["persist.pickle"],
        "persist.json_s": total["persist.json"],
        "persist.journal_records": calls["persist.journal"],
        "persist.journal_s": total["persist.journal"],
    })
    for layer in LAYERS:
        sums[f"{layer}.self_s"] = tracer.self_by_layer[layer]
    sums["other.self_s"] = sum(seconds for layer, seconds
                               in tracer.self_by_layer.items()
                               if layer not in LAYERS)
    sums["obs.uncovered_s"] = job.wall_s - tracer.root_seconds
    sums["obs.covered_s"] = tracer.root_seconds
    return sums


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_figures(jobs: List[Job]) -> Dict[str, float]:
    """Every per-layer metric of one traced round of jobs."""
    sums: Dict[str, float] = defaultdict(float)
    durations: Dict[str, List[float]] = defaultdict(list)
    for job in jobs:
        for name, value in job.sums.items():
            sums[name] += value
        for name, values in job.durations.items():
            durations[name].extend(values)
    wall = sum(job.wall_s for job in jobs)
    dispatch, batches = durations["serve.dispatch"], durations["serve/batch"]
    epochs = durations["stream/epoch"]
    figures = dict(sums)
    covered = figures.pop("obs.covered_s")
    figures.update({
        "curate.yield": _ratio(sums["curate.records_out"],
                               sums["curate.reports_in"]),
        "exec.cache_hit_rate": _ratio(
            sums["exec.cache_hits"],
            sums["exec.cache_hits"] + sums["exec.cache_misses"]),
        "serve.dispatch_p50_us": percentile(dispatch, 0.50) * 1e6,
        "serve.dispatch_p99_us": percentile(dispatch, 0.99) * 1e6,
        "serve.batch_p50_ms": percentile(batches, 0.50) * 1e3,
        "serve.batch_p99_ms": percentile(batches, 0.99) * 1e3,
        "serve.ledger_dup_rate": _ratio(
            sums["serve.ledger_hits"],
            sums["serve.ledger_hits"] + sums["serve.ledger_misses"]),
        "stream.epoch_p50_s": percentile(epochs, 0.50),
        "stream.epoch_max_s": max(epochs, default=0.0),
        "stream.ledger_dup_rate": _ratio(
            sums["stream.ledger_hits"],
            sums["stream.ledger_hits"] + sums["stream.ledger_misses"]),
        "obs.span_coverage": _ratio(covered, wall),
    })
    return figures


def layer_unit(name: str) -> str:
    """A per-layer metric's unit, from its name."""
    if name.endswith("_us"):
        return "us"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_rate", ".yield", "_speedup", "span_coverage",
                      "trace_overhead")):
        return "ratio"
    if name.endswith("bytes_written"):
        return "bytes"
    return "count"


def is_count(name: str) -> bool:
    """Exact counts (and ratios of counts) repeat across same-seed runs;
    wall timings and the ratios derived from them (``obs.*``,
    ``*_speedup``) do not."""
    timed = layer_unit(name) in ("s", "ms", "us") and not name.endswith(
        "_sim_s")
    return not (timed or name.startswith("obs.") or name.endswith("_speedup"))


# -- provenance ---------------------------------------------------------------

def _git_commit() -> str:
    try:
        ref = (Path(".git") / "HEAD").read_text().strip()
        if ref.startswith("ref: "):
            return (Path(".git") / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(Path("src").rglob("*.py")):
        digest.update(str(path).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _filesystem(path: Path) -> str:
    """Filesystem type of the mount holding ``path``."""
    target = str(path.resolve())
    best, kind = "", "unknown"
    try:
        with open("/proc/self/mountinfo") as handle:
            for line in handle:
                fields = line.split()
                mount = fields[4]
                inside = target == mount or target.startswith(
                    mount.rstrip("/") + "/")
                if inside and len(mount) >= len(best):
                    best, kind = mount, fields[fields.index("-") + 1]
    except (OSError, ValueError, IndexError):
        pass
    return kind


def provenance(args, workload) -> Dict[str, Any]:
    import workloads

    stream_fs = None
    if args.trace and any(extra.workload.family == "stream"
                          for extra in workload.extras):
        stream_fs = (f"{_filesystem(Path.cwd())}, fsync as on tmpfs "
                     f"(counted, not flushed)")
    return {
        "workload": args.workload, "seed": args.seed,
        "worlds": workloads.world_seeds(workload, args.seed),
        "seconds": args.seconds, "trace": args.trace, "scale": args.scale,
        "sizes": {job.family: workloads.scaled(job.family, args.scale)
                  for job in [workload] + [extra.workload for extra
                                           in workload.extras if args.trace]},
        "git_commit": _git_commit(), "src_sha256": _source_digest(),
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "stream_fs": stream_fs, "held_out_seed": HELD_OUT_SEED,
    }


# -- references ---------------------------------------------------------------

def load_reference() -> Dict[str, Any]:
    try:
        return json.loads(REFERENCE.read_text())
    except (OSError, ValueError):
        return {}


def expected_digests(family: str, scale: float) -> Dict[str, str]:
    """Reference digests by world seed, when they apply to this run."""
    import workloads

    reference = load_reference()
    if scale != 1 or reference.get("sizes") != workloads.SIZES:
        return {}
    return reference.get("digests", {}).get(family, {})


def parse_seeds(spec: str) -> List[int]:
    seeds: List[int] = []
    for part in spec.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def write_reference(seeds: List[int]) -> int:
    import workloads

    reference = load_reference()
    if reference.get("sizes") != workloads.SIZES:
        reference = {"sizes": workloads.SIZES, "digests": {}}
    for family, workload in workloads.REFERENCE_WORKLOADS.items():
        workload.prepare()
        table = reference["digests"].setdefault(family, {})
        for seed in seeds:
            for world in workloads.world_seeds(workload, seed):
                if str(world) not in table:
                    job = run_job(workload, world, 1.0, False)
                    table[str(world)] = job.outcome.digest
                    print(f"{family} world={world} {job.outcome.digest}",
                          flush=True)
        reference["digests"][family] = dict(
            sorted(table.items(), key=lambda item: int(item[0])))
        REFERENCE.write_text(json.dumps(reference, indent=1) + "\n")
    return 0


# -- the measured run ---------------------------------------------------------

def check(jobs: List[Job], scale: float) -> int:
    """Fail every job whose digest breaks its reference or differs from
    the run's first job of its family on the same world; returns the
    failure count."""
    expected = {family: expected_digests(family, scale)
                for family in {job.family for job in jobs}}
    first: Dict[tuple, str] = {}
    for job in jobs:
        digest = job.outcome.digest
        reference = expected[job.family].get(str(job.world_seed))
        problems = list(job.outcome.violations)
        if first.setdefault((job.family, job.world_seed), digest) != digest:
            problems.append(f"world {job.world_seed}: digest {digest[:12]} "
                            f"differs from this run's first job")
        if reference is not None and digest != reference:
            problems.append(f"world {job.world_seed}: digest {digest[:12]} "
                            f"!= reference {reference[:12]}")
        if problems:
            job.ok = False
            print("bench: failed job: " + "; ".join(problems),
                  file=sys.stderr)
    for (family, world), digest in first.items():
        reference = expected[family].get(str(world))
        status = ("none" if reference is None else
                  "matched" if reference == digest else "MISMATCH")
        print(f"reference {family} world={world} {status} digest={digest}")
    return sum(1 for job in jobs if not job.ok)


def by_world(jobs: List[Job]) -> Dict[int, List[Job]]:
    """Jobs grouped by world, keeping the good ones where a world has any."""
    grouped: Dict[int, List[Job]] = defaultdict(list)
    for job in jobs:
        grouped[job.world_seed].append(job)
    return {world: [job for job in group if job.ok] or group
            for world, group in grouped.items()}


def round_wall(jobs: List[Job]) -> float:
    """One round's job time: the round's work (items offered, one job per
    world) at the run's cost per item, total job time over total work.
    Normalising by the work lets every job count, whatever its world."""
    groups = by_world(jobs)
    kept = [job for group in groups.values() for job in group]
    work = sum(group[-1].outcome.offered for group in groups.values())
    return work * (sum(job.wall_s for job in kept)
                   / max(sum(job.outcome.offered for job in kept), 1))


def round_total(jobs: List[Job], count) -> int:
    """A per-job count summed over one job of each world."""
    return sum(count(group[-1]) for group in by_world(jobs).values())


def run_jobs(workload, worlds: List[int], args, traced: bool) -> List[Job]:
    """Jobs cycling through ``worlds`` until ``--seconds`` of job time is
    measured, every world has run, and another job would overshoot the
    target by more than it falls short."""
    jobs: List[Job] = []
    measured = 0.0
    while (len(jobs) < len(worlds)
           or measured + measured / len(jobs) / 2 < args.seconds):
        world = worlds[len(jobs) % len(worlds)]
        jobs.append(run_job(workload, world, args.scale, traced))
        measured += jobs[-1].wall_s
        print(f"job world={world} traced={int(traced)} "
              f"setup_s={jobs[-1].setup_s:.4f} wall_s={jobs[-1].wall_s:.4f}",
              flush=True)
    return jobs


def measure(args, import_s: float) -> Dict[str, Any]:
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    worlds = workloads.world_seeds(workload, args.seed)
    workload.prepare()
    print("provenance " + json.dumps(provenance(args, workload),
                                     sort_keys=True))
    traced: List[Job] = []
    extras: List[tuple] = []
    if args.trace:
        untraced = [run_job(workload, world, args.scale, False)
                    for world in worlds]
        traced = [run_job(workload, world, args.scale, True)
                  for world in worlds]
        for extra in workload.extras:
            extra.workload.prepare()
            extras.append((extra, *(
                run_job(extra.workload, worlds[0], args.scale, traced_run)
                for traced_run in (False, True))))
    else:
        untraced = run_jobs(workload, worlds, args, False)
    setups = [job.setup_s for job in untraced]
    while not args.trace and len(setups) < MIN_SETUPS:
        start = time.perf_counter()
        ctx = workload.setup(worlds[len(setups) % len(worlds)], args.scale,
                             None)
        setups.append(time.perf_counter() - start)
        workload.cleanup(ctx)
        del ctx

    jobs = untraced + traced + [job for _, *pair in extras for job in pair]
    failed = check(jobs, args.scale)
    failures = round_total(untraced, lambda job: job.outcome.failures)
    base = round_total(untraced, lambda job: job.outcome.base)
    fail_rate = _ratio(failures, base)
    print(f"fail_rate {failures}/{base} = {fail_rate:.6f} "
          f"({untraced[-1].outcome.fail_meaning})")
    if args.trace:
        metrics = trace_metrics(traced, untraced, extras, import_s)
    else:
        wall = round_wall(untraced)
        metrics = {
            "setup_s": (import_s + len(worlds) * median(setups), "s"),
            "wall_s": (wall, "s"),
            "records_per_s": (round_total(
                untraced, lambda job: job.outcome.records) / wall, "1/s"),
            "requests_per_s": (round_total(
                untraced, lambda job: job.outcome.offered) / wall, "1/s"),
            "peak_rss_mb": (resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "fail_rate": (fail_rate, "ratio"),
        }
    return {
        "correct": failed == 0,
        "attempted": len(jobs),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def trace_metrics(traced: List[Job], untraced: List[Job], extras: List[tuple],
                  import_s: float) -> Dict[str, tuple]:
    """Every per-layer metric of one traced round. The layers the workload
    leaves idle take their figures from its extra jobs: the metrics named
    by each extra's prefixes, its untraced job time and, for an extra
    that runs the same job another way, the speedup over the host's job."""
    import workloads

    figures = layer_figures(traced)
    untraced_wall = round_wall(untraced)
    figures["obs.trace_overhead"] = round_wall(traced) / untraced_wall - 1.0
    for workload in workloads.WORKLOADS.values():
        for extra in workload.extras:
            figures[extra.wall_metric] = 0.0
            if extra.speedup_metric:
                figures[extra.speedup_metric] = 0.0
    for extra, plain, job in extras:
        figures.update({name: value for name, value
                        in layer_figures([job]).items()
                        if name.startswith(extra.prefixes)
                        and not name.endswith(".self_s")})
        figures[extra.wall_metric] = plain.wall_s
        if extra.speedup_metric:
            figures[extra.speedup_metric] = median(
                [job.wall_s for job in untraced
                 if job.world_seed == plain.world_seed]) / plain.wall_s
    print_self_table(figures, sum(job.wall_s for job in traced), import_s,
                     sum(job.setup_s for job in traced))
    return {name: (value, layer_unit(name)) for name, value in figures.items()}


def print_self_table(figures: Dict[str, float], wall: float, import_s: float,
                     setup_s: float) -> None:
    print(f"{'layer':<12} {'self_s':>9} {'share':>7}   (traced round wall "
          f"{wall:.3f} s)")
    rows = [(layer, figures[f"{layer}.self_s"]) for layer in LAYERS]
    rows += [("other", figures["other.self_s"]),
             ("(uncovered)", figures["obs.uncovered_s"])]
    for layer, seconds in rows:
        print(f"{layer:<12} {seconds:>9.3f} {seconds / wall:>7.1%}")
    print(f"outside the measured wall: import {import_s:.3f} s, set-up "
          f"{setup_s:.3f} s per round (world.build "
          f"{figures['world.build_s']:.3f} s)")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=HELD_OUT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink world sizes (smoke tests only)")
    parser.add_argument("--write-reference", metavar="SEEDS",
                        help="recompute reference digests, e.g. 0-20,9001")
    args = parser.parse_args(argv)
    if args.workload is None and args.write_reference is None:
        parser.error("--workload is required")
    if not (Path("src") / "repro" / "__init__.py").is_file():
        print("bench: no src/repro under the current directory; run from "
              "the root of a repro checkout", file=sys.stderr)
        return 2

    sys.path.insert(0, str(Path("src").resolve()))
    start = time.perf_counter()
    import workloads  # imports repro
    import_s = time.perf_counter() - start
    counter = sys.modules["hooks"].install_lookup_counter()
    try:
        if args.write_reference:
            return write_reference(parse_seeds(args.write_reference))
        result = measure(args, import_s)
    finally:
        counter.uninstall()
        try:
            workloads.WORK_DIR.rmdir()
        except OSError:
            pass
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
