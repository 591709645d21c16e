#!/usr/bin/env bash
# CI gate: tier-1 tests, the paper-shape checks in benchmarks/ (untimed,
# without the exec grid), the benchmark's own tests (bench/), a check that
# every bench hook target exists and that a short traced bench run of each
# workload reads "correct": true, a coverage gate, and smoke tests of the
# CLI surface: observability, chaos, parallel execution on the process
# pool, six kill/resume legs, `repro ingest`, Chrome trace export,
# hostile input, the investigation fleet and the garbage collector, and
# a run of every example script.
#
# Usage: scripts/ci.sh
# The coverage gate (scripts/coverage_gate.py) fails the build when
# repro coverage drops below its pinned threshold (pytest-cov when
# available, stdlib function-coverage tracer otherwise). The
# observability smoke test runs the full pipeline at the default
# scale with telemetry enabled and asserts the trace JSON carries spans
# for every forum and enrichment stage, and a service.requests counter
# for every enrichment service. The chaos smoke test re-runs
# the pipeline under the `flaky` fault profile and asserts it exits 0
# with a non-empty enrichment-gap report. The parallel smoke test runs
# a `--workers 4` report (the precompute in four worker processes),
# diffs it byte for byte against the serial run, and asserts a non-zero
# enrichment cache hit count in the same run's stats. Six kill/resume
# legs share one
# routine (kill_resume): each runs a command uninterrupted, then with
# --run-dir DIR --kill-at PHASE:N (exit 75), finishes it with `repro
# resume DIR`, and compares the two — a flaky batch report killed
# mid-enrichment and a `--hostile poison` report killed before its
# collection barrier (byte-identical reports), a 2-epoch `repro watch`
# on a 2-worker process pool killed mid-epoch-2 (stream fingerprint),
# a burst `repro serve` on a 2-worker process pool (fingerprint and
# header line), a `--hostile poison` spike `repro serve` killed right
# after a commit, whose resume must keep the quarantine-pressure
# signal (serve fingerprint), and an investigation fleet under the
# `flaky` profile, whose resume restores the VirusTotal fault proxy
# (fingerprint and header line). The ingest smoke test commits a
# 2-epoch `repro watch`, pages it forward one epoch with `repro ingest`
# in a new process, and requires the stream fingerprint of an
# uninterrupted 3-epoch watch. The trace-export smoke test validates the Chrome
# trace-event fields. The hostile-input smoke test checks that a
# `--hostile poison` run quarantines with exact three-bucket accounting
# while the clean run quarantines nothing. The investigation smoke test
# checks that a 4-worker flaky fleet prints the serial run's
# fingerprint.
# The examples leg runs each examples/*.py to completion (exit 0),
# from inside the scratch directory because dataset_release.py writes
# its release to the current directory. The GC smoke test runs one
# report normally and once with the collector disabled for the whole
# process, and diffs the two byte for byte. Speed is not gated here: bench/run.py measures it against
# the bounds in BENCHMARK.json.
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"
# Every smoke leg writes under one scratch directory, removed on exit.
work="$(mktemp -d -t repro-ci-XXXXXX)"
trap 'rm -rf "$work"' EXIT

# kill_resume NAME PHASE:N COMPARE ARGS...: run `repro ARGS` to
# $work/NAME/full.txt, run it again with --run-dir $work/NAME/run
# --kill-at PHASE:N (must exit 75), finish it with `repro resume`, and
# compare the resumed output with the uninterrupted one. COMPARE is
# `report` (byte-identical output), `fingerprint` (the fingerprint line)
# or `header` (the fingerprint line and the header line).
kill_resume() {
  local name="$1" kill="$2" compare="$3"
  shift 3
  local dir="$work/$name"
  mkdir "$dir"
  python -m repro "$@" > "$dir/full.txt"
  local rc=0
  python -m repro --run-dir "$dir/run" --kill-at "$kill" "$@" \
    > /dev/null 2>&1 || rc=$?
  if [ "$rc" -ne 75 ]; then
    echo "$name FAILED: expected exit 75 from the run killed at $kill, got $rc" >&2
    exit 1
  fi
  python -m repro --quiet resume "$dir/run" > "$dir/resumed.txt"
  local full="$dir/full.txt" resumed="$dir/resumed.txt"
  if [ "$compare" != report ]; then
    grep " fingerprint=" "$dir/full.txt" > "$dir/full.cmp"
    grep " fingerprint=" "$dir/resumed.txt" > "$dir/resumed.cmp"
    if [ "$compare" = header ]; then
      head -n 1 "$dir/full.txt" >> "$dir/full.cmp"
      head -n 1 "$dir/resumed.txt" >> "$dir/resumed.cmp"
    fi
    full="$dir/full.cmp" resumed="$dir/resumed.cmp"
  fi
  if ! diff -q "$full" "$resumed" > /dev/null; then
    echo "$name FAILED: resumed output differs from the uninterrupted run ($compare)" >&2
    diff "$full" "$resumed" | head -20 >&2
    exit 1
  fi
  echo "$name ok: killed at $kill, resumed $compare identical to the uninterrupted run"
}

echo "== tier-1 tests =="
python -m pytest -x -q tests

echo "== paper-shape checks (benchmarks/, untimed) =="
# The deterministic shape assertions over run_pipeline and StreamSession;
# test_exec_grid times pools and is not a pass/fail check of shape.
python -m pytest -q benchmarks --benchmark-disable \
  --deselect benchmarks/test_exec_grid.py::test_exec_grid

echo "== benchmark self-tests =="
# Every metric prints with its unit, counts repeat exactly for a seed,
# and the brand-NER counters (nlp.squash_calls > 0) stay visible.
python -m pytest -q bench

echo "== bench hook targets and results =="
# A traced bench run wraps program methods by name. When one is renamed,
# the bench only warns on stderr and that layer's metric reads 0, so a
# short traced run of each workload must not print the warning. Its last
# stdout line is the result JSON, whose "correct" must be true: every
# digest matched (traced and untraced, the 2-worker process twin against
# the serial report) and the stream extra committed all its epochs.
for workload in batch-480 serve-repeat; do
  bench_out="$work/bench-$workload.out"
  hook_err="$(python3 bench/run.py --workload "$workload" --seed 5 \
    --seconds 0 --trace 1 --scale 0.05 2>&1 > "$bench_out")"
  if grep -q "hook targets absent" <<< "$hook_err"; then
    echo "bench hooks FAILED on $workload:" >&2
    grep "hook targets absent" <<< "$hook_err" >&2
    exit 1
  fi
  if ! tail -n 1 "$bench_out" | python -c \
      'import json, sys; sys.exit(json.load(sys.stdin).get("correct") is not True)'; then
    echo "bench results FAILED on $workload: the last line is not \"correct\": true" >&2
    tail -n 1 "$bench_out" | head -c 400 >&2
    echo >&2
    exit 1
  fi
done
echo "bench ok: every traced hook target exists and both workloads read correct"

echo "== coverage gate =="
python scripts/coverage_gate.py

echo "== observability smoke test =="
trace="$work/trace.json"
python -m repro stats --seed 7 --quiet --trace-out "$trace" > /dev/null
python - "$trace" <<'PY'
import json, sys

trace = json.load(open(sys.argv[1]))
names = {span["name"] for span in trace["spans"]}
forums = {"collect/Twitter", "collect/Reddit", "collect/Smishing.eu",
          "collect/Pastebin", "collect/Smishtank"}
stages = {"enrich/precompute", "enrich/senders", "enrich/urls",
          "enrich/annotate"}
missing = (forums | stages) - names
assert not missing, f"missing spans: {sorted(missing)}"
counters = {c["name"] for c in trace["metrics"]["counters"]}
assert {"service.requests", "service.retries",
        "service.backoff_seconds"} <= counters, sorted(counters)
services = {"hlr", "whois", "crtsh", "spamhaus-pdns", "ipinfo",
            "virustotal", "gsb", "openai"}
requested = {c["labels"].get("service") for c in trace["metrics"]["counters"]
             if c["name"] == "service.requests"}
assert services <= requested, f"no requests counted for {sorted(services - requested)}"
print(f"smoke ok: {len(trace['spans'])} spans, "
      f"{len(trace['metrics']['counters'])} counters")
PY

echo "== chaos smoke test (flaky fault profile) =="
chaos_out="$work/chaos.txt"
python -m repro stats --seed 7 --quiet --faults flaky > "$chaos_out"
python - "$chaos_out" <<'PY'
import re, sys

out = open(sys.argv[1]).read()
header = re.search(r"gaps=(\d+)", out)
assert header, "stats header carries no gap count"
assert int(header.group(1)) > 0, "flaky profile produced zero gaps"
assert "Enrichment gaps:" in out, "missing per-service gap report"
assert "Resilience" in out, "missing retry/breaker table"
retries = re.search(r"faults=flaky", out)
assert retries, "stats header does not echo the fault profile"
print(f"chaos ok: {header.group(1)} gaps under the flaky profile")
PY

echo "== parallel smoke test (--workers 4) =="
par_report="$work/par.txt"
serial_report="$work/serial.txt"
par_trace="$work/par.json"
python -m repro --seed 7 --campaigns 20 --quiet --workers 4 \
  --trace-out "$par_trace" report > "$par_report"
python -m repro --seed 7 --campaigns 20 --quiet report > "$serial_report"
if ! diff -q "$par_report" "$serial_report" > /dev/null; then
  echo "parallel FAILED: --workers 4 report differs from serial run" >&2
  diff "$par_report" "$serial_report" | head -20 >&2
  exit 1
fi
python - "$par_trace" <<'PY'
import json, sys

trace = json.load(open(sys.argv[1]))
hits = trace["cache"]["totals"]["hits"]
assert hits > 0, "parallel run recorded zero cache hits"
kinds = [pool["kind"] for pool in trace["exec"]["pools"]]
assert kinds == ["ProcessPool"], f"expected one process pool, ran {kinds}"
print(f"parallel ok: 4-worker process-pool report byte-identical to "
      f"serial run, {hits} cache hits")
PY

echo "== crash-resume smoke test (batch journal) =="
kill_resume batch-flaky whois:5 report \
  --seed 7 --campaigns 40 --quiet --faults flaky report
# A crash before the collection barrier must resume on the poisoned
# world the manifest names, not on a clean one.
kill_resume batch-hostile Reddit:1 report \
  --seed 7 --campaigns 10 --quiet --hostile poison report

echo "== watch smoke test (incremental ingestion) =="
kill_resume watch whois:5@1 fingerprint \
  --seed 7 --campaigns 40 --quiet --workers 2 watch --epochs 2
grep -q "^stream fingerprint=" "$work/watch/full.txt" || {
  echo "watch FAILED: no stream fingerprint in watch output" >&2; exit 1; }
grep -q "(ledger)" "$work/watch/full.txt" || {
  echo "watch FAILED: no ledger row in the Stream table" >&2; exit 1; }

echo "== ingest smoke test (reload a committed stream, page forward) =="
ingest_dir="$work/ingest"
mkdir "$ingest_dir"
python -m repro --seed 7 --campaigns 20 --quiet --run-dir "$ingest_dir/run" \
  watch --epoch-hours 18000 --epochs 2 > /dev/null
python -m repro --quiet ingest "$ingest_dir/run" > "$ingest_dir/ingested.txt"
python -m repro --seed 7 --campaigns 20 --quiet \
  watch --epoch-hours 18000 --epochs 3 > "$ingest_dir/full.txt"
ingested_fp="$(grep '^stream fingerprint=' "$ingest_dir/ingested.txt")"
full_fp="$(grep '^stream fingerprint=' "$ingest_dir/full.txt")"
if [ -z "$full_fp" ] || [ "$ingested_fp" != "$full_fp" ]; then
  echo "ingest FAILED: 2 epochs + ingest differ from 3 uninterrupted epochs" >&2
  echo "  ingested: $ingested_fp" >&2
  echo "  full:     $full_fp" >&2
  exit 1
fi
echo "ingest ok: 2 committed epochs + \`repro ingest\` print the 3-epoch fingerprint"

echo "== serve smoke test (burst load + kill-and-resume) =="
kill_resume serve arrival:5000 header \
  --seed 7 --campaigns 20 --quiet --workers 2 serve --load-profile burst \
  --requests 10000 --reporters 2000 --queue-capacity 40
python - "$work/serve/full.txt" <<'PY'
import re, sys

out = open(sys.argv[1]).read()
header = out.splitlines()[0]
submitted = int(re.search(r"submitted=(\d+)", header).group(1))
assert submitted >= 10_000, f"burst smoke submitted only {submitted}"
depth = re.search(r"queue depth max=(\d+)/(\d+)", out)
assert depth, "no queue-depth line in serve output"
assert int(depth.group(1)) <= int(depth.group(2)), \
    f"queue depth {depth.group(1)} exceeded bound {depth.group(2)}"
assert re.search(r"healthy\s+shedding", out), "service never shed load"
assert "mode=healthy" in header, "service did not recover to healthy"
latency = re.search(r"intake latency sim-seconds p50=([\d.]+) p99=([\d.]+)",
                    out)
assert latency, "no intake latency percentiles in serve output"
print(f"serve ok: {submitted} submitted, depth {depth.group(1)}/"
      f"{depth.group(2)}, shed and recovered, "
      f"p50/p99={latency.group(1)}/{latency.group(2)}s")
PY
# The kill lands right after the commit at arrival 5216, so the resume
# continues from the quarantine rate of the last batch that commit holds.
kill_resume serve-hostile arrival:5217 fingerprint \
  --seed 11 --campaigns 20 --quiet --hostile poison serve \
  --load-profile spike --requests 6000 --reporters 500 --queue-capacity 30 \
  --commit-every 5217

echo "== trace-export smoke test (--trace-format chrome) =="
chrome_trace="$work/chrome.json"
python -m repro stats --seed 7 --quiet \
  --trace-out "$chrome_trace" --trace-format chrome > /dev/null
python - "$chrome_trace" <<'PY'
import json, sys

doc = json.load(open(sys.argv[1]))
events = doc["traceEvents"]
spans = [e for e in events if e.get("ph") == "X"]
assert spans, "chrome trace carries no complete (ph=X) events"
required = {"name", "cat", "ph", "pid", "tid", "ts", "dur", "args"}
for event in spans:
    missing = required - set(event)
    assert not missing, f"event {event.get('name')} missing {sorted(missing)}"
    assert isinstance(event["ts"], (int, float)), "ts must be numeric (us)"
    assert isinstance(event["dur"], (int, float)), "dur must be numeric (us)"
names = {e["name"] for e in spans}
assert "pipeline" in names and "enrich" in names, sorted(names)
assert doc.get("displayTimeUnit") == "ms", "missing displayTimeUnit"
print(f"trace-export ok: {len(spans)} chrome events, fields validated")
PY

echo "== hostile-input smoke test (--hostile poison quarantine) =="
hostile_out="$work/hostile.txt"
hostile_clean_out="$work/hostile-clean.txt"
python -m repro --seed 7 --campaigns 10 --quiet --hostile poison stats \
  > "$hostile_out"
python -m repro --seed 7 --campaigns 10 --quiet stats > "$hostile_clean_out"
python - "$hostile_out" "$hostile_clean_out" <<'PY'
import re, sys

hostile = open(sys.argv[1]).read()
clean = open(sys.argv[2]).read()
quarantined = re.search(r"quarantined=(\d+)", hostile)
assert quarantined and int(quarantined.group(1)) > 0, \
    "poison world quarantined nothing"
assert "hostile=poison" in hostile, "header does not echo the profile"
assert "Quarantine" in hostile, "missing Quarantine table"
assert "reporter_flood" in hostile, "flood reason missing from the table"
# The clean run must not know the quarantine layer exists.
assert "quarantined=" not in clean, "clean run reported quarantines"
assert "Quarantine" not in clean, "clean run rendered a Quarantine table"
# Clean-subset smoke: the curated record count is untouched by hostility.
records = lambda out: re.search(r" records=(\d+)", out).group(1)
assert records(hostile) == records(clean), \
    f"hostile run changed record count {records(hostile)} != {records(clean)}"
print(f"hostile smoke ok: {quarantined.group(1)} quarantined, "
      f"{records(clean)} records on both arms")
PY
python - <<'PY'
from repro.core.pipeline import run_pipeline
from repro.world.scenario import ScenarioConfig, build_world

run = run_pipeline(build_world(
    ScenarioConfig(seed=7, n_campaigns=10, hostile="poison")))
s = run.curation_stats
assert s.reports_in == len(run.collection.reports)
assert s.reports_curated + s.quarantined + s.reports_dropped == s.reports_in, (
    f"accounting broke: {s.reports_curated} + {s.quarantined} + "
    f"{s.reports_dropped} != {s.reports_in}")
assert len(s.quarantines) == s.quarantined
print(f"hostile accounting ok: {s.reports_curated} + {s.quarantined} + "
      f"{s.reports_dropped} == {s.reports_in}")
PY
echo "== investigate smoke test (fleet fingerprint + kill-and-resume) =="
invest_proc_out="$work/invest-proc.txt"
invest_root=(--seed 7 --campaigns 30 --quiet --faults flaky)
invest_sub=(investigate --playbook full-funnel --sample 120)
kill_resume investigate scan:2 header \
  "${invest_root[@]}" "${invest_sub[@]}"
invest_out="$work/investigate/full.txt"
python - "$invest_out" <<'PY'
import re, sys

out = open(sys.argv[1]).read()
header = out.splitlines()[0]
assert "playbook=full-funnel" in header, "header does not echo the playbook"
investigated = int(re.search(r"investigated=(\d+)", header).group(1))
assert investigated > 0, "fleet investigated nothing"
scans = int(re.search(r"scans=(\d+)", header).group(1))
assert scans > 0, "fleet charged no scans — the smoke proves nothing"
assert "Investigations" in out, "missing Investigations table"
assert "Evidence packages" in out, "missing evidence accounting"
assert re.search(r"^investigate fingerprint=", out, re.M), \
    "no fleet fingerprint line"
print(f"investigate ok: {investigated} investigated, {scans} scans")
PY
python -m repro "${invest_root[@]}" --workers 4 \
  "${invest_sub[@]}" > "$invest_proc_out"
serial_invest_fp="$(grep '^investigate fingerprint=' "$invest_out")"
proc_invest_fp="$(grep '^investigate fingerprint=' "$invest_proc_out")"
if [ -z "$serial_invest_fp" ] || [ "$serial_invest_fp" != "$proc_invest_fp" ]; then
  echo "investigate FAILED: process-pool fingerprint differs from serial run" >&2
  echo "  serial:  $serial_invest_fp" >&2
  echo "  process: $proc_invest_fp" >&2
  exit 1
fi
echo "investigate ok: worker-count + kill-and-resume fingerprints match"

echo "== examples =="
root="$(pwd)"
for example in examples/*.py; do
  if ! (cd "$work" && PYTHONPATH="$root/src" python "$root/$example" \
      > /dev/null); then
    echo "examples FAILED: $example did not exit 0" >&2
    exit 1
  fi
  echo "example ok: $example"
done

echo "== GC smoke test (collector disabled for the whole process) =="
# The engine freezes the heap for a run; the collector must never change
# an output, so a run with it off from the first import must print the
# same report byte for byte.
gc_on_report="$work/gc-on.txt"
gc_off_report="$work/gc-off.txt"
gc_args=(--seed 7 --campaigns 40 --faults flaky --quiet report)
python -m repro "${gc_args[@]}" > "$gc_on_report"
python -c "import gc, sys; gc.disable(); from repro.cli import main; sys.exit(main(sys.argv[1:]))" \
  "${gc_args[@]}" > "$gc_off_report"
if ! diff -q "$gc_on_report" "$gc_off_report" > /dev/null; then
  echo "gc FAILED: report with the collector disabled differs from the normal run" >&2
  diff "$gc_on_report" "$gc_off_report" | head -20 >&2
  exit 1
fi
echo "gc ok: report byte-identical with the collector disabled"

echo "ci ok"
