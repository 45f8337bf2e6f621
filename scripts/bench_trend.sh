#!/usr/bin/env bash
# bench_trend.sh [OUT] — run the hot-path benchmark trend through
# cmd/benchtab and fold it into one JSON artifact (default
# BENCH_pr10.json): E12 batch scaling (1/4/16/64 payloads per token
# cycle), E13 pipelining frontier (window 1/2/4/8 at batch 16, static
# vs adaptive sizing, wire codec bytes per payload) and E14 churn recovery
# (kill/restart and joiner adoption, batch 1/16, window 1/4). All
# experiments run in the deterministic simulator with a fixed seed, so
# the artifact is byte-stable for a given tree — CI archives it per run
# and diffs across PRs track the latency/throughput frontier plus the
# recovery-time trajectory. Override the seed with SEED=..., the grids
# with E12_SIZES=/E13_SIZES=/E14_SIZES=.
set -euo pipefail

OUT="${1:-BENCH_pr10.json}"
SEED="${SEED:-42}"
E12_SIZES="${E12_SIZES:-1,4,16,64}"
E13_SIZES="${E13_SIZES:-1,2,4,8}"
E14_SIZES="${E14_SIZES:-1,4}"
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

say() { echo "--- $*" >&2; }

say "E12 batch scaling (sizes $E12_SIZES, seed $SEED)"
go run ./cmd/benchtab -seed "$SEED" -only E12 -sizes "$E12_SIZES" \
  -repeats 1 -format json >"$TMP/e12.json"

say "E13 pipelining frontier (sizes $E13_SIZES, seed $SEED)"
go run ./cmd/benchtab -seed "$SEED" -only E13 -sizes "$E13_SIZES" \
  -repeats 1 -format json >"$TMP/e13.json"

say "E14 churn recovery (windows $E14_SIZES, seed $SEED)"
go run ./cmd/benchtab -seed "$SEED" -only E14 -sizes "$E14_SIZES" \
  -repeats 1 -format json >"$TMP/e14.json"

# One self-describing artifact; the reports are valid JSON documents, so
# wrapping them needs no JSON tooling.
{
  printf '{"seed":%s,"e12":' "$SEED"
  cat "$TMP/e12.json"
  printf ',"e13":'
  cat "$TMP/e13.json"
  printf ',"e14":'
  cat "$TMP/e14.json"
  printf '}\n'
} >"$OUT"

test -s "$OUT"
say "wrote $OUT ($(wc -c <"$OUT") bytes)"
