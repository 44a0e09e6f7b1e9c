#!/usr/bin/env bash
# CI entry point: the tier-1 verify line (configure, build, ctest) in BOTH
# kernel builds (-DDEEPBASE_SIMD=ON default and the scalar fallback, which
# share one layout contract and are pinned bitwise-equal by the
# kernels_equivalence suite), an out-of-core inspection smoke (behaviors
# bigger than the store's memory tier stream via the mmap tier through a
# full session Inspect, byte-identical to the in-memory control), a smoke
# run of the quickstart example through the InspectionSession API, a
# network-serving smoke (start inspect_server, drive it with
# inspect_client over loopback, scrape the kMetrics endpoint twice and
# assert the exposition carries the core series with monotonic
# counters, then assert a clean graceful-drain shutdown),
# a multi-process distributed-cluster smoke (coordinator + workers as
# separate processes; one worker SIGKILLed mid-job; the job completes
# and the table is bit-identical to the 1-worker baseline), the
# ThreadSanitizer build of the concurrency suites (intra-job
# sharding, session jobs, the multi-query scheduler — incl. in-flight
# dedup, persistent-cache restarts, admission quotas, and the
# stale-admission regression — the inspection server/client, the
# cluster coordinator/worker, thread pool, behavior store + blob tier,
# the tracer/metrics observability suite (concurrent scrapes against
# running jobs), and the seeded chaos harness driving every failpoint
# site against a
# mixed local+remote+cluster workload), a short fixed-seed chaos smoke
# under TSan, an ASan+UBSan build-and-test pass of the full suite, and
# smokes of the parallel-engine, scheduler, server, and cluster
# benches so regressions in the sharded, fused, served, and distributed
# paths fail fast, and the perfbench smoke (every benchmark workload's
# tables checked byte-for-byte against the S = 1 oracle).
#
# Usage: scripts/check.sh [build_dir]   (default: build; TSan uses
#                                        <build_dir>-tsan)

set -euo pipefail

REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
BUILD_DIR="${1:-build}"
TSAN_DIR="${BUILD_DIR}-tsan"
JOBS="$(nproc 2>/dev/null || echo 4)"

cd "$REPO_ROOT"

echo "== configure =="
cmake -B "$BUILD_DIR" -S .

echo "== build =="
cmake --build "$BUILD_DIR" -j "$JOBS"

echo "== test =="
(cd "$BUILD_DIR" && ctest --output-on-failure -j "$JOBS")

echo "== smoke: quickstart =="
"$BUILD_DIR/examples/quickstart" >/dev/null

echo "== scalar build (-DDEEPBASE_SIMD=OFF): full suite =="
# The numeric substrate ships two kernel paths (vectorized + scalar
# fallback) behind one layout contract; both must stay green, and the
# kernels_equivalence suite pins them bitwise-equal per build.
SCALAR_DIR="${BUILD_DIR}-scalar"
cmake -B "$SCALAR_DIR" -S . -DDEEPBASE_SIMD=OFF >/dev/null
cmake --build "$SCALAR_DIR" -j "$JOBS"
(cd "$SCALAR_DIR" && ctest --output-on-failure -j "$JOBS")

echo "== smoke: out-of-core inspection (behaviors > memory tier, mmap) =="
# A dataset whose materialized behaviors dwarf the store's memory budget
# must still inspect — streamed from disk via the mmap tier — with
# scores byte-identical to an all-in-memory control run. Checked in both
# kernel builds.
"$BUILD_DIR/examples/oocore_smoke" | grep -q "OOCORE OK" || {
  echo "out-of-core smoke failed (simd build)"; exit 1
}
"$SCALAR_DIR/examples/oocore_smoke" | grep -q "OOCORE OK" || {
  echo "out-of-core smoke failed (scalar build)"; exit 1
}

echo "== smoke: network serving (server + client + graceful drain) =="
SERVER_LOG="$(mktemp)"
"$BUILD_DIR/examples/inspect_server" --serve-for 120 >"$SERVER_LOG" 2>&1 &
SERVER_PID=$!
SERVER_PORT=""
for _ in $(seq 1 100); do
  SERVER_PORT="$(awk '/^LISTENING/{print $2; exit}' "$SERVER_LOG")"
  [ -n "$SERVER_PORT" ] && break
  sleep 0.1
done
if [ -z "$SERVER_PORT" ]; then
  echo "inspect_server did not come up"; cat "$SERVER_LOG"; exit 1
fi
"$BUILD_DIR/examples/inspect_client" --port "$SERVER_PORT" >/dev/null

echo "== smoke: EXPLAIN / EXPLAIN ANALYZE + statusz over the wire =="
# Run the demo query once more at the *current* catalog version (the
# demo's remote hypothesis registration bumped it, correctly invalidating
# older cache entries), so the dry-run plan must name the shared-scan
# group it would form AND predict the repeat as a result-cache hit;
# EXPLAIN ANALYZE then runs the job and must reconcile without
# divergences ("!!" lines). statusz is the live introspection page:
# scheduler counters + cache occupancy at minimum.
EXPLAIN_OUT="$(mktemp)"
"$BUILD_DIR/examples/inspect_client" --port "$SERVER_PORT" --once >/dev/null
"$BUILD_DIR/examples/inspect_client" --port "$SERVER_PORT" --explain \
    >"$EXPLAIN_OUT"
grep -q "group=" "$EXPLAIN_OUT" || {
  echo "EXPLAIN plan does not name the shared-scan group"
  cat "$EXPLAIN_OUT"; exit 1
}
grep -q "cache: hit" "$EXPLAIN_OUT" || {
  echo "EXPLAIN plan did not predict the repeat as a cache hit"
  cat "$EXPLAIN_OUT"; exit 1
}
"$BUILD_DIR/examples/inspect_client" --port "$SERVER_PORT" --explain \
    --analyze >"$EXPLAIN_OUT"
grep -qF "| actual:" "$EXPLAIN_OUT" || {
  echo "EXPLAIN ANALYZE carried no actuals"; cat "$EXPLAIN_OUT"; exit 1
}
grep -qF "!!" "$EXPLAIN_OUT" && {
  echo "EXPLAIN ANALYZE flagged a plan-vs-actual divergence"
  cat "$EXPLAIN_OUT"; exit 1
}
"$BUILD_DIR/examples/inspect_client" --port "$SERVER_PORT" --statusz \
    >"$EXPLAIN_OUT"
for field in "scheduler: jobs_scheduled=" "result-cache: hits=" \
             "failpoints:"; do
  grep -qF "$field" "$EXPLAIN_OUT" || {
    echo "statusz is missing \"$field\""; cat "$EXPLAIN_OUT"; exit 1
  }
done
rm -f "$EXPLAIN_OUT"

echo "== smoke: metrics endpoint (Prometheus scrape x2, monotonic counters) =="
SCRAPE1="$(mktemp)"; SCRAPE2="$(mktemp)"
"$BUILD_DIR/examples/inspect_client" --port "$SERVER_PORT" --metrics >"$SCRAPE1"
for metric in deepbase_jobs_submitted_total \
              'deepbase_jobs_total{status="ok"}' \
              deepbase_queue_depth \
              deepbase_job_latency_seconds_bucket \
              deepbase_job_latency_seconds_count \
              deepbase_server_connections_total; do
  grep -qF "$metric" "$SCRAPE1" || {
    echo "metrics scrape is missing $metric"; cat "$SCRAPE1"; exit 1
  }
done
# More jobs between scrapes: the submit counter must strictly grow.
"$BUILD_DIR/examples/inspect_client" --port "$SERVER_PORT" >/dev/null
"$BUILD_DIR/examples/inspect_client" --port "$SERVER_PORT" --metrics >"$SCRAPE2"
SUBMITTED1="$(awk '$1 == "deepbase_jobs_submitted_total" {print $2}' "$SCRAPE1")"
SUBMITTED2="$(awk '$1 == "deepbase_jobs_submitted_total" {print $2}' "$SCRAPE2")"
if [ -z "$SUBMITTED1" ] || [ -z "$SUBMITTED2" ] ||
   [ "$SUBMITTED2" -le "$SUBMITTED1" ]; then
  echo "deepbase_jobs_submitted_total not monotonic across scrapes" \
       "($SUBMITTED1 -> $SUBMITTED2)"
  exit 1
fi
rm -f "$SCRAPE1" "$SCRAPE2"
kill -TERM "$SERVER_PID"
wait "$SERVER_PID"
grep -q "clean shutdown" "$SERVER_LOG" || {
  echo "inspect_server did not drain cleanly"; cat "$SERVER_LOG"; exit 1
}
rm -f "$SERVER_LOG"

echo "== smoke: distributed cluster (coordinator + 2 workers, SIGKILL one mid-job) =="
CLUSTER_LOG="$(mktemp)"
W1_LOG="$(mktemp)"; W2_LOG="$(mktemp)"
BASELINE_OUT="$(mktemp)"; KILLRUN_OUT="$(mktemp)"
"$BUILD_DIR/examples/inspect_server" --cluster --no-result-cache \
    --serve-for 120 >"$CLUSTER_LOG" 2>&1 &
CLUSTER_SRV_PID=$!
CLIENT_PORT=""; CLUSTER_PORT=""
for _ in $(seq 1 100); do
  CLIENT_PORT="$(awk '/^LISTENING/{print $2; exit}' "$CLUSTER_LOG")"
  CLUSTER_PORT="$(awk '/^CLUSTER/{print $2; exit}' "$CLUSTER_LOG")"
  [ -n "$CLUSTER_PORT" ] && break
  sleep 0.1
done
if [ -z "$CLUSTER_PORT" ]; then
  echo "cluster coordinator did not come up"; cat "$CLUSTER_LOG"; exit 1
fi
# Worker 1: healthy. Registered first, alone, for the baseline run.
"$BUILD_DIR/examples/inspect_worker" --port "$CLUSTER_PORT" --id w1 \
    >"$W1_LOG" 2>&1 &
W1_PID=$!
for _ in $(seq 1 100); do
  grep -q "WORKER READY" "$W1_LOG" && break; sleep 0.1
done
# Baseline: the 1-worker cluster result (jaccard: integer-count merge,
# bit-identical at any worker count by the determinism contract).
"$BUILD_DIR/examples/inspect_client" --port "$CLIENT_PORT" \
    --measure jaccard --once | tail -n +2 >"$BASELINE_OUT"
grep -q "^ROWS" "$BASELINE_OUT" || {
  echo "cluster baseline run produced no rows"; cat "$CLUSTER_LOG"; exit 1
}
# EXPLAIN ANALYZE over the live cluster: the plan predicts the dispatch
# and no planned field diverges from the run ("!!" marks a divergence).
EXPLAIN_OUT="$("$BUILD_DIR/examples/inspect_client" --port "$CLIENT_PORT" \
    --measure jaccard --explain --analyze)"
grep -q "cluster: dispatch" <<<"$EXPLAIN_OUT" || {
  echo "cluster EXPLAIN ANALYZE planned no dispatch"; echo "$EXPLAIN_OUT"
  exit 1
}
if grep -q "!!" <<<"$EXPLAIN_OUT"; then
  echo "cluster EXPLAIN ANALYZE diverged from the run"; echo "$EXPLAIN_OUT"
  exit 1
fi
# Worker 2: stalls each assignment (failure-injection hook), so the kill
# below always lands mid-job while its block range is still in flight.
"$BUILD_DIR/examples/inspect_worker" --port "$CLUSTER_PORT" --id w2 \
    --assignment-delay 30 >"$W2_LOG" 2>&1 &
W2_PID=$!
for _ in $(seq 1 100); do
  grep -q "WORKER READY" "$W2_LOG" && break; sleep 0.1
done
# Submit with both workers live (ranges split across w1+w2), then
# SIGKILL w2 mid-job: its range must be reassigned and the job complete.
"$BUILD_DIR/examples/inspect_client" --port "$CLIENT_PORT" \
    --measure jaccard --once | tail -n +2 >"$KILLRUN_OUT" &
KILL_CLIENT_PID=$!
sleep 1
kill -KILL "$W2_PID" 2>/dev/null || true
wait "$KILL_CLIENT_PID"
cmp "$BASELINE_OUT" "$KILLRUN_OUT" || {
  echo "cluster table changed after mid-job worker kill"
  diff "$BASELINE_OUT" "$KILLRUN_OUT" | head; exit 1
}
kill -TERM "$W1_PID" 2>/dev/null || true
wait "$W1_PID" 2>/dev/null || true
wait "$W2_PID" 2>/dev/null || true
kill -TERM "$CLUSTER_SRV_PID"
wait "$CLUSTER_SRV_PID"
grep -q "clean shutdown" "$CLUSTER_LOG" || {
  echo "cluster server did not drain cleanly"; cat "$CLUSTER_LOG"; exit 1
}
grep -q "reassignments" "$CLUSTER_LOG" || {
  echo "cluster server printed no cluster stats"; cat "$CLUSTER_LOG"; exit 1
}
rm -f "$CLUSTER_LOG" "$W1_LOG" "$W2_LOG" "$BASELINE_OUT" "$KILLRUN_OUT"

echo "== tsan: concurrency suites =="
cmake -B "$TSAN_DIR" -S . -DDEEPBASE_TSAN=ON >/dev/null
cmake --build "$TSAN_DIR" -j "$JOBS" --target parallel_engine_test \
      service_test scheduler_test server_test util_test \
      behavior_store_test cluster_test chaos_test observability_test \
      explain_test
(cd "$TSAN_DIR" &&
 ctest --output-on-failure -j 1 \
       -R 'parallel_engine_test|service_test|scheduler_test|server_test|util_test|behavior_store_test|cluster_test|chaos_test|observability_test|explain_test')

echo "== tsan: chaos smoke (fixed seed, short schedule) =="
DEEPBASE_CHAOS_SEED=805381 DEEPBASE_CHAOS_STEPS=16 \
    "$TSAN_DIR/tests/chaos_test" >/dev/null

echo "== asan+ubsan: full suite =="
ASAN_DIR="${BUILD_DIR}-asan"
cmake -B "$ASAN_DIR" -S . -DDEEPBASE_ASAN_UBSAN=ON >/dev/null
cmake --build "$ASAN_DIR" -j "$JOBS"
(cd "$ASAN_DIR" && ctest --output-on-failure -j 1)

echo "== smoke: 2-thread parallel bench =="
cmake --build "$BUILD_DIR" -j "$JOBS" --target bench_engine_parallel \
      >/dev/null
"$BUILD_DIR/bench/bench_engine_parallel" --smoke \
    --out "$BUILD_DIR/BENCH_engine_parallel_smoke.json" >/dev/null

echo "== smoke: scheduler batch bench =="
cmake --build "$BUILD_DIR" -j "$JOBS" --target bench_scheduler_batch \
      >/dev/null
"$BUILD_DIR/bench/bench_scheduler_batch" --smoke --jobs 4 \
    --out "$BUILD_DIR/BENCH_scheduler_batch_smoke.json" >/dev/null

echo "== smoke: server throughput bench =="
cmake --build "$BUILD_DIR" -j "$JOBS" --target bench_server >/dev/null
"$BUILD_DIR/bench/bench_server" --smoke --clients 2 --jobs 2 \
    --out "$BUILD_DIR/BENCH_server_throughput_smoke.json" >/dev/null

echo "== smoke: cluster scale-out bench =="
cmake --build "$BUILD_DIR" -j "$JOBS" --target bench_cluster >/dev/null
"$BUILD_DIR/bench/bench_cluster" --smoke \
    --out "$BUILD_DIR/BENCH_cluster_scaleout_smoke.json" >/dev/null

echo "== smoke: measure-kernel bench =="
cmake --build "$BUILD_DIR" -j "$JOBS" --target bench_kernels >/dev/null
"$BUILD_DIR/bench/bench_kernels" --smoke \
    --out "$BUILD_DIR/BENCH_kernels_smoke.json" >/dev/null

echo "== smoke: perfbench (every workload's table vs the S = 1 oracle) =="
# Real models over sharded streaming, the server and the sliced cluster:
# each workload's tables must match the sequential oracle byte-for-byte.
python3 perfbench/run.py --smoke

echo "OK"
