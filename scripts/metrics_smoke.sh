#!/usr/bin/env bash
# metrics_smoke.sh [N] [SHARDS] [DURATION] — boot an N-node (default 3)
# disk-backed noded cluster over real TCP with SHARDS (default 2)
# register shards, drive a mixed write/sync-read nodeload workload
# (default 2s), then scrape every node's GET /metrics and pipe each
# page through cmd/metricslint: the exposition must be strict-parser
# clean and the key subsystem families — tcp, datalink, vs/smr,
# shard router, storage, http — must be present with nonzero samples
# after the write load. Also asserts nodeload's own end-of-run scrape
# folded nonzero server.* counters into its report and lost no
# acknowledged write, and that /metrics stays parseable while being
# scraped concurrently. CI runs this as
# the metrics smoke job.
set -euo pipefail

N="${1:-3}"
SHARDS="${2:-2}"
DURATION="${3:-2s}"
BASE_TCP="${BASE_TCP:-7270}"
BASE_HTTP="${BASE_HTTP:-8270}"
source "$(dirname "$0")/cluster.sh"

build noded nodeload metricslint

say "booting $N nodes × $SHARDS shards, disk-backed (-data-dir), JSON logs"
for i in $(seq 1 "$N"); do
  start_node "$i" -seed 23 -shards "$SHARDS" -data-dir "$TMP/data$i" -snap-every 64 \
    -log-format json
done

say "waiting for liveness (healthz) on every node"
wait_healthz

say "every node's structured startup line made it to the log"
for i in $(seq 1 "$N"); do
  grep -q '"msg":"noded started"' "$TMP/node$i.log" || {
    echo "FAIL: node $i log has no structured startup line"
    sed -n '1,5p' "$TMP/node$i.log"
    exit 1
  }
done

say "running $DURATION mixed workload (nodeload, with end-of-run /metrics fold-in)"
"$TMP/nodeload" -addrs "$ADDRS" -clients 8 -duration "$DURATION" -ratio 0.5 \
  -shards "$SHARDS" -wait 120s -format csv -out "$TMP/load"

# mean SERIES — one summary mean from nodeload's report.
mean() {
  awk -F, -v s="$1" '$2 == s { print $7 }' "$TMP/load/summary.csv"
}

say "nodeload folded live server counters into its report"
for series in server.shard_ops server.vs_rounds server.datalink_cycles \
  server.tcp_frames_written server.storage_appends server.http_requests; do
  m="$(mean "$series")"
  [ -n "$m" ] || { echo "FAIL: series $series missing from nodeload summary"; exit 1; }
  awk -v m="$m" 'BEGIN { exit !(m + 0 > 0) }' || {
    echo "FAIL: folded series $series = $m, want > 0"
    exit 1
  }
  echo "ok: $series = $m"
done

say "every acknowledged write survived the load"
lost="$(mean survival.lost_acked_writes)"
[ "$lost" = 0 ] || { echo "FAIL: survival.lost_acked_writes = '$lost', want 0"; exit 1; }
echo "ok: survival.lost_acked_writes = 0"

# The cluster ran real traffic over TCP with disk-backed shards, so on
# every node each subsystem family must exist AND have moved. Shard
# ops are presence-only per node: the shard-aware client routes each
# shard's requests to that shard's preferred endpoint, so with fewer
# shards than nodes some node legitimately serves no register ops —
# the cluster-wide nonzero total is asserted above via the report's
# folded server.shard_ops series. Echo rounds are presence-only too: only
# a shard's coordinator completes rounds, on a tick or on an echo.
FAMILIES=(
  repro_node_ticks_total=nonzero
  repro_node_tick_late_seconds=nonzero
  repro_fd_peer_down_total
  repro_build_info=nonzero
  repro_tcp_sent_total=nonzero
  repro_tcp_delivered_total=nonzero
  repro_tcp_frames_written_total=nonzero
  repro_datalink_cycles_total=nonzero
  repro_datalink_delivered_total=nonzero
  repro_datalink_queue_depth
  repro_vs_rounds_applied_total=nonzero
  repro_vs_views_installed_total=nonzero
  repro_vs_echo_rounds_total
  repro_smr_pending_commands
  repro_shard_ops_total
  repro_storage_appends_total=nonzero
  repro_storage_wal_records=nonzero
  repro_http_requests_total=nonzero
  repro_http_request_seconds=nonzero
)

for i in $(seq 1 "$N"); do
  url="http://127.0.0.1:$((BASE_HTTP + i))/metrics"
  say "scraping node $i ($url) → strict parse + family assertions"
  curl -fsS "$url" >"$TMP/metrics$i.txt"
  "$TMP/metricslint" "${FAMILIES[@]}" <"$TMP/metrics$i.txt"
done

# Advisory, not a gate: the rate each node's timer achieved over a
# second, beside what the defaults this script boots with (-tick 2ms
# -jitter 1ms) ask for. A loaded runner reads lower.
ticks() {
  curl -fsS "http://127.0.0.1:$((BASE_HTTP + $1))/metrics" |
    awk '$1 == "repro_node_ticks_total" { print $2 }'
}
say "achieved tick rate per node (nominal 1/(tick + jitter/2) = 400/s)"
declare -a TICKS0=() AT0=()
for i in $(seq 1 "$N"); do
  AT0[i]="$(date +%s.%N)"
  TICKS0[i]="$(ticks "$i")"
done
sleep 1
for i in $(seq 1 "$N"); do
  awk -v i="$i" -v a="${TICKS0[i]}" -v t0="${AT0[i]}" -v t1="$(date +%s.%N)" -v b="$(ticks "$i")" \
    'BEGIN { printf "node %d: %.0f ticks/s\n", i, (b - a) / (t1 - t0) }'
done

say "concurrent scrapes stay strict-parser clean"
declare -a SCRAPES=()
for _ in $(seq 1 8); do
  (curl -fsS "http://127.0.0.1:$((BASE_HTTP + 1))/metrics" | "$TMP/metricslint" >/dev/null) &
  SCRAPES+=($!)
done
for p in "${SCRAPES[@]}"; do
  wait "$p" || { echo "FAIL: concurrent scrape came back malformed"; exit 1; }
done

say "SUCCESS: $N-node × $SHARDS-shard disk-backed cluster served strict-parser-clean /metrics with live tcp, datalink, vs, shard, storage and http families on every node"
