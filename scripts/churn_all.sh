#!/usr/bin/env bash
# churn_all.sh [DURATION] [OUT] — the churn experiment pipeline
# (DESIGN.md §16), one trend-comparable report per run:
#
#   1. grid    — the deterministic simnet twin: benchtab runs the E14
#                churn-recovery grid (kill/restart and joiner adoption,
#                batch 1/16, datalink window 1/4) at a fixed seed.
#   2. check   — CSV validation: every E14 cell must be valid (acked
#                writes survived, post-recovery writes resumed, joiner
#                adopted the state) or the pipeline fails here.
#   3. live    — the chaos harness: nodeload -noded supervises a real
#                3-node × 2-shard TCP cluster per profile (batch=1/
#                window=1 and batch=16/window=4), SIGKILLs a victim
#                mid-load, restarts it over its -data-dir, drives one
#                fresh -members none joiner through adoption, and exits
#                nonzero on any lost acked write.
#   4. summary — a grouped table: simnet predicted ticks next to live
#                measured milliseconds per (event, batch) arm.
#
# Everything lands under OUT (default ./churn_report): e14/cells.csv +
# e14/summary.csv, live-b*/cells.csv + summary.csv, summary.txt. CI
# archives the directory; diffing summary.txt across PRs tracks the
# recovery-time trend. Override the seed with SEED=..., the E14 window
# grid with E14_SIZES=..., the live cluster shape with NODES=/SHARDS=.
set -euo pipefail

DURATION="${1:-6s}"
OUT="${2:-churn_report}"
SEED="${SEED:-42}"
E14_SIZES="${E14_SIZES:-1,4}"
NODES="${NODES:-3}"
SHARDS="${SHARDS:-2}"
WARMUP="${WARMUP:-1s}"
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

say() { echo "--- $*" >&2; }

mkdir -p "$OUT"

say "building noded + nodeload"
go build -o "$TMP/noded" ./cmd/noded
go build -o "$TMP/nodeload" ./cmd/nodeload

say "1/4 grid: E14 churn recovery (windows $E14_SIZES, seed $SEED, simnet)"
go run ./cmd/benchtab -seed "$SEED" -only E14 -sizes "$E14_SIZES" \
  -repeats 1 -format csv -out "$OUT/e14"

say "2/4 check: every E14 cell valid"
# cells.csv: experiment,series,n,repeat,seed,value,valid,note
bad="$(awk -F, '$1 == "E14" && $7 != "true"' "$OUT/e14/cells.csv")"
total="$(awk -F, '$1 == "E14"' "$OUT/e14/cells.csv" | wc -l)"
if [ -n "$bad" ]; then
  echo "FAIL: invalid E14 cells:" >&2
  echo "$bad" >&2
  exit 1
fi
say "all $total E14 cells valid"

# live PROFILE SERIES — one summary mean of a live profile's report.
# live summary.csv: nodeload,<series>,<metric>,n,repeats,valid,mean,...
live() { awk -F, -v s="$2" '$2 == s { print $7 }' "$OUT/$1/summary.csv"; }

# live_profile NAME BATCH WINDOW — one supervised chaos run.
live_profile() {
  local name="$1" batch="$2" window="$3" lost
  say "3/4 live: $name (batch=$batch window=$window, $NODES nodes × $SHARDS shards, $DURATION)"
  "$TMP/nodeload" -noded "$TMP/noded" \
    -nodes "$NODES" -shards "$SHARDS" -batch "$batch" -window "$window" \
    -clients 4 -duration "$DURATION" -warmup "$WARMUP" -seed "$SEED" \
    -format csv -out "$OUT/$name"
  # nodeload already exits nonzero on lost acked writes, a missed join
  # or an incomplete schedule; assert the series landed in the report
  # too, and that the survival check counted zero losses.
  for series in churn.recovery_time_ms churn.join_adopt_ms \
    survival.lost_acked_writes; do
    grep -q ",$series," "$OUT/$name/summary.csv" \
      || { echo "FAIL: $series missing from $name report" >&2; exit 1; }
  done
  lost="$(live "$name" survival.lost_acked_writes)"
  [ "$lost" = 0 ] \
    || { echo "FAIL: $name lost $lost acked write(s)" >&2; exit 1; }
}

live_profile live-b1 1 1
live_profile live-b16 16 4

say "4/4 summary: simnet predicted vs live measured"
# e14 summary.csv: experiment,series,metric,n,repeats,valid,mean,...
sim() { awk -F, -v s="$1" -v n="$2" '$2 == s && $4 == n { print $7 }' "$OUT/e14/summary.csv"; }
{
  echo "churn trend report (seed $SEED, live: $NODES nodes × $SHARDS shards, $DURATION + $WARMUP warmup)"
  echo
  printf '%-22s %-8s %18s %18s\n' "event" "batch" "simnet w1 (ticks)" "simnet w4 (ticks)"
  printf '%-22s %-8s %18s %18s\n' "kill -> recovered" 1 "$(sim kill_b1 1)" "$(sim kill_b1 4)"
  printf '%-22s %-8s %18s %18s\n' "kill -> recovered" 16 "$(sim kill_b16 1)" "$(sim kill_b16 4)"
  printf '%-22s %-8s %18s %18s\n' "join -> serving" 1 "$(sim join_b1 1)" "$(sim join_b1 4)"
  printf '%-22s %-8s %18s %18s\n' "join -> serving" 16 "$(sim join_b16 1)" "$(sim join_b16 4)"
  echo
  printf '%-22s %-14s %14s %14s\n' "live series" "profile" "b1/w1 (ms)" "b16/w4 (ms)"
  for series in churn.recovery_time_ms churn.join_adopt_ms \
    survival.lost_acked_writes; do
    printf '%-22s %-14s %14s %14s\n' "${series#*.}" "$NODES nodes" \
      "$(live live-b1 "$series")" "$(live live-b16 "$series")"
  done
} | tee "$OUT/summary.txt"

say "SUCCESS: wrote $OUT (e14 grid, live profiles, summary.txt)"
