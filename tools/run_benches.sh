#!/usr/bin/env bash
# Runs the dispatch-path benchmarks and merges their JSON output into one
# artifact, BENCH_dispatch.json, annotated with aggregate multi-thread
# throughput (the benchmark library reports per-thread-normalized rates for
# ->Threads(n) runs, so the aggregate is items_per_second * threads).
#
# Usage: tools/run_benches.sh [--strict] [build_dir] [out_json]
#   --strict   exit non-zero when ANY benchmark listed in
#              tools/bench_baseline.json regresses >10% (default: warn only),
#              or when the monitoring plane adds >10% to the Notify path
#   build_dir  defaults to ./build (must contain bench/ binaries)
#   out_json   defaults to BENCH_dispatch.json in the current directory
#
# Also runs bench_monitor_overhead and writes BENCH_monitor.json next to
# out_json: the Notify hot path measured bare, under the health watchdog,
# and under watchdog + a concurrently scraping /metrics endpoint. Overheads
# above 2% print a warning (noise allowance); above 10% strict mode fails.
#
# Note: the bundled Google Benchmark predates duration-suffixed
# --benchmark_min_time values; pass plain seconds (0.2, not "0.2s").
set -euo pipefail

STRICT=0
positional=()
for arg in "$@"; do
  case "${arg}" in
    --strict) STRICT=1 ;;
    *) positional+=("${arg}") ;;
  esac
done

BUILD_DIR="${positional[0]:-build}"
OUT="${positional[1]:-BENCH_dispatch.json}"
MIN_TIME="${BENCH_MIN_TIME:-0.2}"
export SENTINEL_BENCH_STRICT="${STRICT}"

tmpdir="$(mktemp -d)"
trap 'rm -rf "${tmpdir}"' EXIT

# Each benchmark with a DumpMetricsSnapshot hook leaves its Prometheus
# exposition (ActiveDatabase::PrometheusText, <name>.prom) next to the
# timing artifact.
METRICS_DIR="${SENTINEL_BENCH_METRICS_DIR:-BENCH_metrics}"
mkdir -p "${METRICS_DIR}"
export SENTINEL_BENCH_METRICS_DIR="${METRICS_DIR}"

run() {
  local bin="$1" filter="$2" out="$3"
  "${BUILD_DIR}/bench/${bin}" \
    --benchmark_filter="${filter}" \
    --benchmark_min_time="${MIN_TIME}" \
    --benchmark_format=json \
    --benchmark_out="${out}" \
    --benchmark_out_format=json >/dev/null
}

run bench_primitive_events 'BM_Notify.*' "${tmpdir}/primitive.json"
run bench_threading 'BM_NotifyConcurrent.*' "${tmpdir}/threading.json"
run bench_span_overhead 'BM_Span.*' "${tmpdir}/span.json"
run bench_monitor_overhead 'BM_Monitor.*' "${tmpdir}/monitor.json"
run bench_net_throughput 'BM_Net.*' "${tmpdir}/net.json"
run bench_commit_throughput 'BM_Commit.*' "${tmpdir}/commit.json"

BASELINE="$(dirname "$0")/bench_baseline.json"

python3 - "${BASELINE}" "${tmpdir}/primitive.json" "${tmpdir}/threading.json" \
    "${tmpdir}/span.json" "${OUT}" <<'PY'
import json
import os
import re
import sys

baseline_path = sys.argv[1]
merged = {"context": None, "benchmarks": []}
for path in sys.argv[2:-1]:
    with open(path) as f:
        doc = json.load(f)
    if merged["context"] is None:
        merged["context"] = doc.get("context", {})
    merged["benchmarks"].extend(doc.get("benchmarks", []))

for bench in merged["benchmarks"]:
    m = re.search(r"/threads:(\d+)", bench.get("name", ""))
    if m and "items_per_second" in bench:
        threads = int(m.group(1))
        bench["threads"] = threads
        bench["aggregate_items_per_second"] = (
            bench["items_per_second"] * threads
        )

# Fold in the checked-in pre-PR baseline and per-benchmark speedups so the
# artifact is self-contained evidence of the improvement. EVERY benchmark
# with a baseline entry that regresses more than 10% gets a printed warning;
# with --strict (SENTINEL_BENCH_STRICT=1) they fail the run instead, so CI
# can gate on hot-path regressions across the whole tracked set.
regressions = []
if os.path.exists(baseline_path):
    with open(baseline_path) as f:
        baseline = json.load(f)
    merged["pre_pr_baseline"] = baseline
    base_times = baseline.get("benchmarks", {})
    for bench in merged["benchmarks"]:
        base = base_times.get(bench.get("name"))
        if base and bench.get("real_time"):
            speedup = base["real_time_ns"] / bench["real_time"]
            bench["speedup_vs_baseline"] = speedup
            if speedup < 1 / 1.10:
                regressions.append(
                    (bench["name"], base["real_time_ns"], bench["real_time"])
                )

# Trace-context trailer cost (DESIGN.md §14): encoding a Notify frame with
# the 24-byte trailer + flags bit vs the bare pre-trailer encode, measured
# in the same run. Target <2% (noise allowance); >10% fails strict mode —
# the same two-tier pattern as the monitoring-plane gate below.
times = {
    b["name"]: b.get("real_time")
    for b in merged["benchmarks"]
    if b.get("run_type") != "aggregate"
}
trailer_base = times.get("BM_SpanNetEncodeBaseline")
trailer = times.get("BM_SpanNetEncodeTrailer")
if trailer_base and trailer:
    pct = (trailer - trailer_base) / trailer_base * 100.0
    merged["trace_trailer_overhead_pct"] = pct
    print(f"  trace-context trailer encode overhead: {pct:+.2f}%")
    if pct > 10.0:
        regressions.append(
            ("BM_SpanNetEncodeTrailer (+%.1f%% vs baseline encode)" % pct,
             trailer_base, trailer)
        )
    elif pct > 2.0:
        print(f"WARNING: trace-context trailer adds {pct:.1f}% to the "
              "Notify encode (above the 2% target)")

with open(sys.argv[-1], "w") as f:
    json.dump(merged, f, indent=2)
    f.write("\n")

strict = os.environ.get("SENTINEL_BENCH_STRICT") == "1"
for name, base_ns, now_ns in regressions:
    severity = "ERROR" if strict else "WARNING"
    print(
        f"{severity}: {name} regressed >10% vs baseline "
        f"({base_ns:.1f} ns -> {now_ns:.1f} ns)."
    )

for bench in merged["benchmarks"]:
    if bench.get("run_type") == "aggregate":
        continue
    name = bench["name"]
    t = bench.get("real_time")
    unit = bench.get("time_unit", "ns")
    agg = bench.get("aggregate_items_per_second")
    line = f"  {name:55s} {t:10.1f} {unit}"
    if agg is not None:
        line += f"   aggregate {agg / 1e6:8.2f} M items/s"
    speedup = bench.get("speedup_vs_baseline")
    if speedup is not None:
        line += f"   {speedup:.2f}x vs baseline"
    print(line)

if strict and regressions:
    sys.exit(1)
PY

# Monitoring-plane overhead artifact: Notify cost bare vs under the watchdog
# vs under watchdog + live /metrics scraping, with relative overheads.
MONITOR_OUT="$(dirname "${OUT}")/BENCH_monitor.json"
python3 - "${tmpdir}/monitor.json" "${MONITOR_OUT}" <<'PY'
import json
import os
import sys

with open(sys.argv[1]) as f:
    doc = json.load(f)
times = {}
for bench in doc.get("benchmarks", []):
    if bench.get("run_type") == "aggregate":
        continue
    times[bench["name"]] = bench.get("real_time")

off = times.get("BM_MonitorNotifyOff")
out = {
    "description": (
        "Notify hot-path cost without monitoring, with the health watchdog "
        "sampling at 10ms, and with watchdog + a concurrent /metrics "
        "scraper. Overheads are relative to BM_MonitorNotifyOff; the "
        "monitoring plane must stay within noise (<2%) of the bare path."
    ),
    "context": doc.get("context", {}),
    "benchmarks": times,
    "overhead_pct": {},
}
failures = []
strict = os.environ.get("SENTINEL_BENCH_STRICT") == "1"
for name in ("BM_MonitorNotifyWatchdog", "BM_MonitorNotifyServerAndWatchdog"):
    t = times.get(name)
    if not off or not t:
        continue
    pct = (t - off) / off * 100.0
    out["overhead_pct"][name] = pct
    print(f"  {name:55s} {t:10.1f} ns   {pct:+6.2f}% vs off")
    if pct > 10.0:
        failures.append((name, pct))
        print(f"{'ERROR' if strict else 'WARNING'}: {name} adds "
              f"{pct:.1f}% to the Notify path (>10%)")
    elif pct > 2.0:
        print(f"WARNING: {name} adds {pct:.1f}% to the Notify path "
              "(above the 2% noise allowance)")

with open(sys.argv[2], "w") as f:
    json.dump(out, f, indent=2)
    f.write("\n")
if strict and failures:
    sys.exit(1)
PY

# Network-plane artifact: frame codec cost, loopback notify→push round-trip,
# and streamed throughput. Socket timings are machine-dependent, so this
# artifact is informational — it never joins bench_baseline.json, and strict
# mode only fails if the benchmark itself failed to run (caught above by
# `set -e`) or reported an error.
NET_OUT="$(dirname "${OUT}")/BENCH_net.json"
python3 - "${tmpdir}/net.json" "${NET_OUT}" <<'PY'
import json
import os
import sys

with open(sys.argv[1]) as f:
    doc = json.load(f)
out = {
    "description": (
        "Networked GED event bus: frame codec, notify->push round-trip "
        "over loopback TCP (untraced and with full distributed tracing), "
        "and streamed batch throughput with the admission/backpressure "
        "pipeline engaged. Round-trip runs carry the always-on e2e "
        "latency quantiles (origin->dispatch/detect/action) as counters. "
        "Machine-dependent; not baseline-gated."
    ),
    "context": doc.get("context", {}),
    "benchmarks": doc.get("benchmarks", []),
}
errors = [b["name"] for b in out["benchmarks"] if b.get("error_occurred")]
for bench in out["benchmarks"]:
    if bench.get("run_type") == "aggregate":
        continue
    name = bench["name"]
    t = bench.get("real_time")
    unit = bench.get("time_unit", "ns")
    ips = bench.get("items_per_second")
    line = f"  {name:55s} {t:10.1f} {unit}"
    if ips:
        line += f"   {ips / 1e3:10.1f} K items/s"
    print(line)
with open(sys.argv[2], "w") as f:
    json.dump(out, f, indent=2)
    f.write("\n")
strict = os.environ.get("SENTINEL_BENCH_STRICT") == "1"
for name in errors:
    print(f"{'ERROR' if strict else 'WARNING'}: {name} failed to run")
if strict and errors:
    sys.exit(1)
PY

# Commit-path artifact: per-commit-fsync seed vs WAL group commit vs async
# commit across 1..8 committer threads. The strict gate is the WITHIN-RUN
# speedup at 8 threads (group or async vs the per-fsync baseline measured in
# the same run, on the same disk), so it is robust to machine-to-machine
# fsync variance; the checked-in bench_baseline.json entries are a
# conservative seed reference that only trips on catastrophic regressions
# (losing group commit entirely). Note: for these ->Threads(n)->UseRealTime()
# benchmarks items_per_second is already the AGGREGATE commit rate (the
# per-fsync run cannot exceed 1/fsync_latency at any thread count, and
# that is what it reports) — do not multiply by threads.
COMMIT_OUT="$(dirname "${OUT}")/BENCH_commit.json"
python3 - "${BASELINE}" "${tmpdir}/commit.json" "${COMMIT_OUT}" <<'PY'
import json
import os
import sys

with open(sys.argv[1]) as f:
    baseline = json.load(f)
with open(sys.argv[2]) as f:
    doc = json.load(f)

times = {}
rates = {}
for bench in doc.get("benchmarks", []):
    if bench.get("run_type") == "aggregate":
        continue
    times[bench["name"]] = bench.get("real_time")
    rates[bench["name"]] = bench.get("items_per_second")


def bname(family, threads):
    return f"{family}/real_time/threads:{threads}"


out = {
    "description": (
        "Commit-path throughput: one Begin/Insert(64B)/Commit transaction "
        "per iteration. BM_CommitPerFsync = seed one-fsync-per-commit, "
        "BM_CommitGroup = leader/follower group commit (sync ack), "
        "BM_CommitAsync = ack on WAL-buffer write. items_per_second is the "
        "aggregate commit rate; speedup_vs_per_fsync compares against the "
        "per-fsync run at the same thread count within this run."
    ),
    "context": doc.get("context", {}),
    "benchmarks": doc.get("benchmarks", []),
    "aggregate_commits_per_second": rates,
    "speedup_vs_per_fsync": {},
}

strict = os.environ.get("SENTINEL_BENCH_STRICT") == "1"
failures = []

for family in ("BM_CommitGroup", "BM_CommitAsync"):
    for threads in (1, 2, 4, 8):
        base = rates.get(bname("BM_CommitPerFsync", threads))
        rate = rates.get(bname(family, threads))
        if base and rate:
            out["speedup_vs_per_fsync"][bname(family, threads)] = rate / base

at8 = [
    out["speedup_vs_per_fsync"].get(bname(f, 8))
    for f in ("BM_CommitGroup", "BM_CommitAsync")
]
at8 = [s for s in at8 if s is not None]
best8 = max(at8) if at8 else 0.0
out["best_speedup_at_8_threads"] = best8
if best8 < 5.0:
    failures.append(
        f"best 8-thread commit speedup {best8:.2f}x vs per-commit-fsync "
        "baseline is below the 5x acceptance floor"
    )

# Sync-mode single-thread latency parity: group commit's leader path must
# stay close to the seed inline-fsync path (no per-commit thread handoff).
g1 = times.get(bname("BM_CommitGroup", 1))
p1 = times.get(bname("BM_CommitPerFsync", 1))
if g1 and p1:
    ratio = g1 / p1
    out["sync_single_thread_latency_ratio"] = ratio
    if ratio > 1.10:
        print(
            f"WARNING: group-commit single-thread sync latency is "
            f"{ratio:.2f}x the per-fsync seed (>1.10x target)"
        )

# Conservative checked-in baseline (same >10% semantics as the dispatch
# artifact): entries are seed per-commit-fsync references, so a trip means
# the commit path got slower than before group commit existed.
base_times = baseline.get("benchmarks", {})
out["baseline_speedups"] = {}
for name, entry in sorted(base_times.items()):
    if not name.startswith("BM_Commit") or name not in times:
        continue
    speedup = entry["real_time_ns"] / times[name]
    out["baseline_speedups"][name] = speedup
    if speedup < 1 / 1.10:
        failures.append(
            f"{name} regressed >10% vs checked-in seed reference "
            f"({entry['real_time_ns']:.0f} ns -> {times[name]:.0f} ns)"
        )

for name in sorted(rates):
    rate = rates[name]
    if rate is None:
        continue
    line = f"  {name:45s} {times[name]:12.1f} ns   {rate:12.1f} commits/s"
    speedup = out["speedup_vs_per_fsync"].get(name)
    if speedup is not None:
        line += f"   {speedup:6.2f}x vs per-fsync"
    print(line)
print(f"  best 8-thread speedup vs per-commit-fsync: {best8:.2f}x")

with open(sys.argv[3], "w") as f:
    json.dump(out, f, indent=2)
    f.write("\n")

for msg in failures:
    print(f"{'ERROR' if strict else 'WARNING'}: {msg}")
if strict and failures:
    sys.exit(1)
PY

echo "wrote ${OUT}"
echo "wrote ${MONITOR_OUT}"
echo "wrote ${NET_OUT}"
echo "wrote ${COMMIT_OUT}"
echo "metrics snapshots (if any) in ${METRICS_DIR}/"
