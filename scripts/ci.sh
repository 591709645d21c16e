#!/usr/bin/env bash
# CI gate: tier-1 tests, the benchmark's own tests (bench/), a check that
# every bench hook target exists, a coverage gate, an observability smoke
# test, a chaos smoke test, a parallel-execution smoke test, a process-pool
# smoke test (a `--pool process --workers 4` report diffed byte-for-byte
# against the serial run), a crash-resume smoke test, a
# Chrome trace-export smoke test, a perf-gate smoke test (which
# also enforces the records/second floor), a hostile-input smoke
# test (a `--hostile poison` run must quarantine with exact three-bucket
# accounting while the clean run quarantines nothing), and an
# investigation smoke test (a process-pool fleet's fingerprint must
# match the serial run's, a killed durable fleet must resume to the
# same fingerprint, and the perf gate's investigations/second floor
# must stay wired).
#
# Usage: scripts/ci.sh
# The coverage gate (scripts/coverage_gate.py) fails the build when
# repro coverage drops below its pinned threshold (pytest-cov when
# available, stdlib function-coverage tracer otherwise). The
# observability smoke test runs the full pipeline at the default
# scale with telemetry enabled and asserts the trace JSON carries spans
# for every forum and enrichment service. The chaos smoke test re-runs
# the pipeline under the `flaky` fault profile and asserts it exits 0
# with a non-empty enrichment-gap report. The parallel smoke test runs
# with --workers 4 and asserts a clean exit with a non-zero enrichment
# cache hit rate in the stats output. The crash-resume smoke test kills
# a checkpointed flaky run mid-enrichment (--crash-at), resumes it with
# `repro resume`, and diffs the resumed report against an uninterrupted
# run's — they must be byte-identical; a second leg does the same for a
# `--hostile poison` run crashed before its collection barrier. The
# watch smoke test runs a 2-epoch incremental ingest (`repro watch`) on
# a 2-worker process pool, crashes a second copy mid-epoch-2, resumes it
# from its stream directory, and compares the stream fingerprints —
# crash/resume must not change what was ingested. The GC smoke test runs
# one report normally and once with the collector disabled for the whole
# process, and diffs the two byte for byte.
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"
# Every smoke leg writes under one scratch directory, removed on exit.
work="$(mktemp -d -t repro-ci-XXXXXX)"
trap 'rm -rf "$work"' EXIT

echo "== tier-1 tests =="
python -m pytest -x -q tests

echo "== benchmark self-tests =="
# Every metric prints with its unit, counts repeat exactly for a seed,
# and the brand-NER counters (nlp.squash_calls > 0) stay visible.
python -m pytest -q bench

echo "== bench hook targets =="
# A traced bench run wraps program methods by name. When one is renamed,
# the bench only warns on stderr and that layer's metric reads 0, so a
# short traced run of each workload must not print the warning.
for workload in batch-480 serve-repeat; do
  hook_err="$(python3 bench/run.py --workload "$workload" --seed 5 \
    --seconds 0 --trace 1 --scale 0.05 2>&1 > /dev/null)"
  if grep -q "hook targets absent" <<< "$hook_err"; then
    echo "bench hooks FAILED on $workload:" >&2
    grep "hook targets absent" <<< "$hook_err" >&2
    exit 1
  fi
done
echo "bench hooks ok: every traced hook target exists"

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
services = {"enrich/hlr", "enrich/whois", "enrich/crtsh",
            "enrich/spamhaus-pdns", "enrich/ipinfo", "enrich/virustotal",
            "enrich/gsb", "enrich/openai"}
missing = (forums | services) - names
assert not missing, f"missing spans: {sorted(missing)}"
counters = {c["name"] for c in trace["metrics"]["counters"]}
assert {"service.requests", "service.retries",
        "service.backoff_seconds"} <= counters, sorted(counters)
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
par_out="$work/par.txt"
python -m repro stats --seed 7 --quiet --workers 4 > "$par_out"
python - "$par_out" <<'PY'
import re, sys

out = open(sys.argv[1]).read()
assert "workers=4" in out, "stats header does not echo the worker count"
assert "cache=on" in out, "stats header does not echo the cache state"
assert "Cache" in out and "Hit rate" in out, "missing cache table"
total = re.search(r"\(total\)\s+([\d,]+)", out)
row = re.search(r"openai\s+([\d,]+)", out)
hits = int((total or row).group(1).replace(",", ""))
assert hits > 0, "parallel run recorded zero cache hits"
print(f"parallel ok: workers=4 run exited 0 with {hits} cache hits")
PY

echo "== process-pool smoke test (--pool process --workers 4) =="
proc_report="$work/proc.txt"
serial_report="$work/serial.txt"
python -m repro --seed 7 --campaigns 20 --quiet --workers 4 \
  --pool process report > "$proc_report"
python -m repro --seed 7 --campaigns 20 --quiet report > "$serial_report"
if ! diff -q "$proc_report" "$serial_report" > /dev/null; then
  echo "process-pool FAILED: --pool process report differs from serial run" >&2
  diff "$proc_report" "$serial_report" | head -20 >&2
  exit 1
fi
echo "process-pool ok: 4-worker process-pool report byte-identical to serial run"

echo "== crash-resume smoke test (checkpoint journal) =="
ck_dir="$work/ck"
resumed_out="$work/resumed.txt"
full_out="$work/full.txt"
crash_rc=0
python -m repro --seed 7 --campaigns 40 --quiet --faults flaky \
  --checkpoint-dir "$ck_dir" --crash-at whois:5 report \
  > /dev/null 2>&1 || crash_rc=$?
if [ "$crash_rc" -ne 75 ]; then
  echo "crash-resume FAILED: expected exit 75 from the killed run, got $crash_rc" >&2
  exit 1
fi
python -m repro resume --checkpoint-dir "$ck_dir" --quiet > "$resumed_out"
python -m repro --seed 7 --campaigns 40 --quiet --faults flaky report > "$full_out"
if ! diff -q "$resumed_out" "$full_out" > /dev/null; then
  echo "crash-resume FAILED: resumed report differs from uninterrupted run" >&2
  diff "$resumed_out" "$full_out" | head -20 >&2
  exit 1
fi
echo "crash-resume ok: resumed report byte-identical to uninterrupted run"
# Hostile leg: a crash before the collection barrier must resume on the
# poisoned world the manifest names, not on a clean one.
ck_hostile="$work/ck-hostile"
mkdir "$ck_hostile"
crash_rc=0
python -m repro --seed 7 --campaigns 10 --quiet --hostile poison \
  --checkpoint-dir "$ck_hostile/ck" --crash-at Reddit:1 report \
  > /dev/null 2>&1 || crash_rc=$?
if [ "$crash_rc" -ne 75 ]; then
  echo "crash-resume FAILED: expected exit 75 from the killed hostile run, got $crash_rc" >&2
  exit 1
fi
python -m repro resume --checkpoint-dir "$ck_hostile/ck" --quiet \
  > "$ck_hostile/resumed.txt"
python -m repro --seed 7 --campaigns 10 --quiet --hostile poison report \
  > "$ck_hostile/full.txt"
if ! diff -q "$ck_hostile/resumed.txt" "$ck_hostile/full.txt" > /dev/null; then
  echo "crash-resume FAILED: resumed hostile report differs from uninterrupted hostile run" >&2
  diff "$ck_hostile/resumed.txt" "$ck_hostile/full.txt" | head -20 >&2
  exit 1
fi
echo "crash-resume ok: resumed --hostile poison report byte-identical to uninterrupted run"

echo "== watch smoke test (incremental ingestion) =="
clean_dir="$work/stream-clean"
crash_dir="$work/stream-crash"
watch_out="$work/watch.txt"
resume_stream_out="$work/watch-resumed.txt"
watch_pool=(--workers 2 --pool process)
python -m repro --seed 7 --campaigns 40 --quiet "${watch_pool[@]}" \
  watch --epochs 2 --stream-dir "$clean_dir" > "$watch_out"
grep -q "^stream fingerprint=" "$watch_out" || {
  echo "watch FAILED: no stream fingerprint in watch output" >&2; exit 1; }
grep -q "(ledger)" "$watch_out" || {
  echo "watch FAILED: no ledger row in the Stream table" >&2; exit 1; }
watch_rc=0
python -m repro --seed 7 --campaigns 40 --quiet "${watch_pool[@]}" \
  --crash-at whois:5 watch --epochs 2 --crash-epoch 1 \
  --stream-dir "$crash_dir" > /dev/null 2>&1 || watch_rc=$?
if [ "$watch_rc" -ne 75 ]; then
  echo "watch FAILED: expected exit 75 from the mid-epoch crash, got $watch_rc" >&2
  exit 1
fi
python -m repro --quiet resume --stream-dir "$crash_dir" > "$resume_stream_out"
clean_fp="$(grep "^stream fingerprint=" "$watch_out")"
resumed_fp="$(grep "^stream fingerprint=" "$resume_stream_out")"
if [ "$clean_fp" != "$resumed_fp" ]; then
  echo "watch FAILED: resumed stream fingerprint differs from clean run" >&2
  echo "  clean:   $clean_fp" >&2
  echo "  resumed: $resumed_fp" >&2
  exit 1
fi
echo "watch ok: process-pool crash/resume stream fingerprint matches the clean 2-epoch run"

echo "== serve smoke test (burst load + kill-and-resume) =="
serve_out="$work/serve.txt"
serve_dir="$work/serve-dir"
serve_resumed_out="$work/serve-resumed.txt"
serve_args=(--seed 7 --campaigns 20 --quiet serve --load-profile burst
  --requests 10000 --reporters 2000 --queue-capacity 40)
python -m repro "${serve_args[@]}" > "$serve_out"
python - "$serve_out" <<'PY'
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
serve_rc=0
python -m repro "${serve_args[@]}" --serve-dir "$serve_dir" \
  --kill-at 5000 > /dev/null 2>&1 || serve_rc=$?
if [ "$serve_rc" -ne 75 ]; then
  echo "serve FAILED: expected exit 75 from the killed run, got $serve_rc" >&2
  exit 1
fi
python -m repro --quiet serve --resume --serve-dir "$serve_dir" \
  > "$serve_resumed_out"
serve_fp="$(grep '^serve fingerprint=' "$serve_out")"
resumed_serve_fp="$(grep '^serve fingerprint=' "$serve_resumed_out")"
if [ -z "$serve_fp" ] || [ "$serve_fp" != "$resumed_serve_fp" ]; then
  echo "serve FAILED: resumed fingerprint differs from uninterrupted run" >&2
  echo "  clean:   $serve_fp" >&2
  echo "  resumed: $resumed_serve_fp" >&2
  exit 1
fi
if [ "$(head -n 1 "$serve_out")" != "$(head -n 1 "$serve_resumed_out")" ]; then
  echo "serve FAILED: resumed header counts differ from uninterrupted run" >&2
  diff <(head -n 1 "$serve_out") <(head -n 1 "$serve_resumed_out") >&2
  exit 1
fi
echo "serve ok: kill-and-resume fingerprint matches the uninterrupted run"

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

echo "== perf-gate smoke test (baseline pin + tampered baseline) =="
perf_dir="$work/perf"
mkdir "$perf_dir"
python -m repro stats --seed 7 --quiet --history-dir "$perf_dir" > /dev/null
python scripts/perf_gate.py --history-dir "$perf_dir" \
  --baseline "$perf_dir/BASELINE.json" --update-baseline > /dev/null
python -m repro stats --seed 7 --quiet --history-dir "$perf_dir" > /dev/null
# The records/second floor: 1 rec/s is trivially clear on any machine —
# the point is the plumbing (record -> threshold -> finding) stays wired.
python scripts/perf_gate.py --history-dir "$perf_dir" \
  --baseline "$perf_dir/BASELINE.json" --max-slowdown 100.0 \
  --min-records-per-sec 1
floor_rc=0
python scripts/perf_gate.py --history-dir "$perf_dir" \
  --baseline "$perf_dir/BASELINE.json" --max-slowdown 100.0 \
  --min-records-per-sec 1000000000 > /dev/null || floor_rc=$?
if [ "$floor_rc" -ne 1 ]; then
  echo "perf-gate FAILED: impossible records/sec floor should exit 1, got $floor_rc" >&2
  exit 1
fi
python - "$perf_dir/BASELINE.json" <<'PY'
import json, sys

path = sys.argv[1]
baseline = json.load(open(path))
baseline["charged"] = {name: 0 for name in baseline["charged"]}
baseline["charged_total"] = 0
json.dump(baseline, open(path, "w"), sort_keys=True)
PY
gate_rc=0
python scripts/perf_gate.py --history-dir "$perf_dir" \
  --baseline "$perf_dir/BASELINE.json" --max-slowdown 100.0 \
  > /dev/null || gate_rc=$?
if [ "$gate_rc" -ne 1 ]; then
  echo "perf-gate FAILED: tampered baseline should exit 1, got $gate_rc" >&2
  exit 1
fi
echo "perf-gate ok: clean baseline passes, records/sec floor enforced, tampered baseline fails"

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
invest_out="$work/invest.txt"
invest_proc_out="$work/invest-proc.txt"
invest_resumed_out="$work/invest-resumed.txt"
invest_dir="$work/invest-dir"
invest_perf="$work/invest-perf"
mkdir "$invest_perf"
invest_root=(--seed 7 --campaigns 30 --quiet)
invest_sub=(investigate --playbook full-funnel --sample 120)
python -m repro "${invest_root[@]}" --history-dir "$invest_perf" \
  "${invest_sub[@]}" > "$invest_out"
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
python -m repro "${invest_root[@]}" --workers 4 --pool process \
  "${invest_sub[@]}" > "$invest_proc_out"
serial_invest_fp="$(grep '^investigate fingerprint=' "$invest_out")"
proc_invest_fp="$(grep '^investigate fingerprint=' "$invest_proc_out")"
if [ -z "$serial_invest_fp" ] || [ "$serial_invest_fp" != "$proc_invest_fp" ]; then
  echo "investigate FAILED: process-pool fingerprint differs from serial run" >&2
  echo "  serial:  $serial_invest_fp" >&2
  echo "  process: $proc_invest_fp" >&2
  exit 1
fi
invest_rc=0
python -m repro "${invest_root[@]}" "${invest_sub[@]}" \
  --invest-dir "$invest_dir" --kill-at 2 > /dev/null 2>&1 || invest_rc=$?
if [ "$invest_rc" -ne 75 ]; then
  echo "investigate FAILED: expected exit 75 from the killed fleet, got $invest_rc" >&2
  exit 1
fi
python -m repro --quiet investigate --resume --invest-dir "$invest_dir" \
  > "$invest_resumed_out"
resumed_invest_fp="$(grep '^investigate fingerprint=' "$invest_resumed_out")"
if [ "$serial_invest_fp" != "$resumed_invest_fp" ]; then
  echo "investigate FAILED: resumed fingerprint differs from uninterrupted run" >&2
  echo "  clean:   $serial_invest_fp" >&2
  echo "  resumed: $resumed_invest_fp" >&2
  exit 1
fi
if [ "$(head -n 1 "$invest_out")" != "$(head -n 1 "$invest_resumed_out")" ]; then
  echo "investigate FAILED: resumed header counts differ from uninterrupted run" >&2
  diff <(head -n 1 "$invest_out") <(head -n 1 "$invest_resumed_out") >&2
  exit 1
fi
python scripts/perf_gate.py --history-dir "$invest_perf" \
  --baseline "$invest_perf/BASELINE.json" --update-baseline > /dev/null
python -m repro "${invest_root[@]}" --history-dir "$invest_perf" \
  "${invest_sub[@]}" > /dev/null
# The investigations/second floor: like the records/sec leg, a tiny
# floor keeps the plumbing (record -> threshold -> finding) wired.
python scripts/perf_gate.py --history-dir "$invest_perf" \
  --baseline "$invest_perf/BASELINE.json" --max-slowdown 100.0 \
  --min-investigations-per-sec 0.000001 > /dev/null
invest_floor_rc=0
python scripts/perf_gate.py --history-dir "$invest_perf" \
  --baseline "$invest_perf/BASELINE.json" --max-slowdown 100.0 \
  --min-investigations-per-sec 1000000000 > /dev/null || invest_floor_rc=$?
if [ "$invest_floor_rc" -ne 1 ]; then
  echo "investigate FAILED: impossible investigations/sec floor should exit 1, got $invest_floor_rc" >&2
  exit 1
fi
echo "investigate ok: pool matrix + kill-and-resume fingerprints match, perf floor enforced"

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
