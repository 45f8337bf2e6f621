#!/usr/bin/env bash
# Builds the benchmark (its own module, stdlib only) and runs it. Every
# byte the build and the run write lands under .bench_build/ or
# bench/out/ in the checkout: the Go build cache, the two binaries, and
# the per-run scratch directory that holds the nodes' data dirs.
#
#   bash bench/run.sh                      # all four workloads, untraced
#   bash bench/run.sh -trace 1             # traced pass, per-layer numbers
#   bash bench/run.sh -aa                  # run the suite twice, compare
#   bash bench/run.sh --workload steady --seed 3 --seconds 20 --trace 0
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/bin"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath" GOMODCACHE="$build/gomod"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$root/bench" && go build -o "$build/bin/bench" .)
(cd "$root" && go build -o "$build/bin/noded" ./cmd/noded)
exec "$build/bin/bench" -root "$root" "$@"
