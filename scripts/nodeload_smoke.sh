#!/usr/bin/env bash
# nodeload_smoke.sh [N] [SHARDS] [DURATION] — boot an N-node (default 3)
# noded cluster over real TCP with SHARDS (default 2) register shards,
# run a mixed write/sync-read nodeload workload (default 2s, after a
# WARMUP lead-in excluded from accounting) through the shard-aware
# failover client, and assert the report is sane: nonzero write and
# sync-read throughput, parseable p50/p95/p99 percentiles, zero errors,
# zero lost acknowledged writes.
# The whole pass then repeats against a cluster running with hot-path
# batching (-batch 16, DESIGN.md §11) and asserts the batched run's
# total throughput is at least the unbatched run's — the warmup keeps
# connection-setup and first-request link-cleaning costs out of both
# measurements, so no re-measure retry is needed. Beside each pass's
# throughput it prints the operations a multicast round carried on
# average (the growth of repro_shard_ops_total over the growth of
# repro_vs_rounds_applied_total, read from every node's /metrics around
# the load) — advisory: if the batched pass stops putting more commands
# into a round than the unbatched one, the submission path lost its
# batching (DESIGN.md §17 "One step per slice"). CI runs this as the
# nodeload smoke job.
set -euo pipefail

N="${1:-3}"
SHARDS="${2:-2}"
DURATION="${3:-2s}"
WARMUP="${WARMUP:-1s}"
BATCH="${BATCH:-16}"
BASE_TCP="${BASE_TCP:-7170}"
BASE_HTTP="${BASE_HTTP:-8170}"
source "$(dirname "$0")/cluster.sh"

build noded nodeload

# boot_cluster BATCH — start N nodes with the given hot-path batch bound.
boot_cluster() {
  say "booting $N nodes × $SHARDS shards (batch=$1)"
  start_cluster -seed 11 -shards "$SHARDS" -batch "$1"
  say "waiting for liveness (healthz) on every node"
  wait_healthz
}

# counters — "OPS ROUNDS": the register operations the cluster's nodes
# routed and the multicast rounds one node applied (every node applies
# every round, so the cluster's sum is divided by N), so far.
counters() {
  for i in $(seq 1 "$N"); do
    curl -fsS "http://127.0.0.1:$((BASE_HTTP + i))/metrics"
  done | awk -v n="$N" '
    /^repro_shard_ops_total[{ ]/ { ops += $NF }
    /^repro_vs_rounds_applied_total[{ ]/ { rounds += $NF }
    END { printf "%d %d\n", ops, rounds / n }'
}

# run_load OUTDIR — drive the mixed workload and sanity-check the report.
run_load() {
  local out="$1"
  say "running $DURATION mixed workload after $WARMUP warmup ($SHARDS shards, ${N}-endpoint failover client)"
  local before after
  before="$(counters)"
  "$TMP/nodeload" -addrs "$ADDRS" -clients 8 -duration "$DURATION" -warmup "$WARMUP" \
    -ratio 0.5 -shards "$SHARDS" -wait 120s -format csv -out "$out"
  after="$(counters)"
  test -s "$out/cells.csv" && test -s "$out/summary.csv"
  OPS_PER_ROUND="$(echo "$before $after" | awk '{ r = $4 - $2; printf "%.2f", (r > 0 ? ($3 - $1) / r : 0) }')"
  echo
  awk -F, '{ printf "%-32s %-28s %-6s %s\n", $2, $7, $3, $6 }' "$out/summary.csv"
  echo
}

# mean OUTDIR SERIES — one summary mean. summary.csv:
# experiment,series,metric,n,...,mean,...
mean() {
  awk -F, -v s="$2" '$2 == s { print $7 }' "$1/summary.csv"
}

# check OUTDIR SERIES pos|zero — assert a summary mean's sign.
check() {
  local out="$1" series="$2" cmp="$3"
  local m
  m="$(mean "$out" "$series")"
  [ -n "$m" ] || { echo "FAIL: series $series missing from summary"; exit 1; }
  awk -v m="$m" -v c="$cmp" 'BEGIN {
    if (c == "pos" && !(m + 0 > 0)) exit 1
    if (c == "zero" && m + 0 != 0) exit 1
  }' || { echo "FAIL: series $series mean=$m violates $cmp"; exit 1; }
  echo "ok: $series = $m"
}

# check_report OUTDIR — both op classes moved, percentiles parse as
# positive numbers, nothing errored, and every acknowledged write was
# read back after the load.
check_report() {
  local out="$1"
  check "$out" "write.throughput_ops_s" pos
  check "$out" "sync-read.throughput_ops_s" pos
  check "$out" "total.throughput_ops_s" pos
  for cls in write sync-read; do
    for p in p50_ms p95_ms p99_ms; do
      check "$out" "$cls.$p" pos
    done
    check "$out" "$cls.errors" zero
  done
  check "$out" "survival.acked_keys" pos
  check "$out" "survival.lost_acked_writes" zero
}

boot_cluster 1
run_load "$TMP/load-b1"
check_report "$TMP/load-b1"
R1="$OPS_PER_ROUND"
stop_nodes
sleep 1

boot_cluster "$BATCH"
run_load "$TMP/load-b$BATCH"
check_report "$TMP/load-b$BATCH"
RB="$OPS_PER_ROUND"

T1="$(mean "$TMP/load-b1" total.throughput_ops_s)"
TB="$(mean "$TMP/load-b$BATCH" total.throughput_ops_s)"
say "total throughput: batch=1 $T1 ops/s, batch=$BATCH $TB ops/s"
say "operations per round (advisory): batch=1 $R1, batch=$BATCH $RB"
# Both runs measure only their post-warmup window, so connection setup
# and first-request link cleaning never skew the comparison.
awk -v a="$T1" -v b="$TB" 'BEGIN { exit !(b + 0 >= a + 0) }' || {
  echo "FAIL: batch=$BATCH throughput $TB < unbatched $T1"
  exit 1
}
stop_nodes

say "SUCCESS: live $N-node × $SHARDS-shard cluster sustained the mixed workload, and batch=$BATCH kept throughput >= batch=1 ($TB vs $T1 ops/s)"
