#!/usr/bin/env bash
# bench_record.sh — record where a change leaves the repo's performance,
# as BENCH_<pr>.json at the root of the repo (ROADMAP item 17).
#
#   bash scripts/bench_record.sh -pr 44                  # micro half only
#   bash scripts/bench_record.sh -pr 44 -pairs steady,pipeline -seeds 1-10
#
# The micro half runs, with -count 10 on the working tree:
# BenchmarkNodeTick and BenchmarkNodeReceive (internal/core, -benchtime
# 2000x), BenchmarkObsHotPath (internal/obs) and regmem's BenchmarkApply*
# (-benchtime 200ms); each ns/op, B/op and allocs/op becomes one metric.
#
# With -pairs it also runs the end-to-end benchmark (bench/run.sh
# --seconds 20 --trace 0, BENCHMARK.json's run length) on every listed
# workload and seed, as pairs of the parent (-parent, default HEAD — the
# base of an uncommitted change; name HEAD~1 when the change is
# committed), unpacked by git archive into the work directory, and the
# working tree; the side that runs first alternates from pair to pair.
# Every end-to-end metric becomes one metric per side. A run that does not
# end in "correct":true with no failed operation stops the script. Run
# nothing else on the host meanwhile: a go test beside a 20 s run moves
# its p50 by a millisecond.
#
# BENCH_<pr>.json holds the commit measured (HEAD, suffixed "+dirty" when
# the working tree differs from it), the parent, the Go version, nproc,
# the pair settings, and for each metric its name, unit, side ("commit"
# or "parent"), median, q1, q3 (linear interpolation between the sorted
# values) and n. The raw lines are kept in the work directory (-work,
# default a fresh mktemp -d, printed at the end): micro.txt and
# pairs/<workload>-<seed>-<side>.json. TestBenchRecordsAreWellFormed
# checks the schema of every checked-in BENCH_*.json.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
pr="" pairs="" seeds="1-10" parent_rev=HEAD work=""
seconds=20 count=10
usage() { awk 'NR > 1 && !/^#/ { exit } NR > 1 { sub(/^# ?/, ""); print }' "$0" >&2; exit 2; }
while [ $# -gt 0 ]; do
  case "$1" in
    -pr) pr=$2; shift 2 ;;
    -pairs) pairs=$2; shift 2 ;;
    -seeds) seeds=$2; shift 2 ;;
    -parent) parent_rev=$2; shift 2 ;;
    -work) work=$2; shift 2 ;;
    *) usage ;;
  esac
done
[[ "$pr" =~ ^[0-9]+$ ]] || usage
case "$seeds" in
  *-*) seed_list=$(seq "${seeds%-*}" "${seeds#*-}") ;;
  *) seed_list=$(echo "$seeds" | tr ',' ' ') ;;
esac
[ -n "$work" ] || work=$(mktemp -d)
mkdir -p "$work"
say() { echo "--- $*" >&2; }

cd "$root"
commit=$(git rev-parse HEAD)
git diff --quiet HEAD -- && [ -z "$(git ls-files --others --exclude-standard)" ] || commit="$commit+dirty"
parent=$(git rev-parse "$parent_rev^{commit}")
values="$work/values.tsv" # name, unit, side, value — one line per sample
: >"$values"

say "micro benchmarks, -count $count (working tree)"
{
  go test -run '^$' -bench '^Benchmark(NodeTick|NodeReceive)$' -benchmem -benchtime 2000x -count "$count" ./internal/core/
  go test -run '^$' -bench '^BenchmarkObsHotPath$' -benchmem -benchtime 200ms -count "$count" ./internal/obs/
  go test -run '^$' -bench '^BenchmarkApply' -benchmem -benchtime 200ms -count "$count" ./internal/regmem/
} | tee "$work/micro.txt" | awk '
  /^Benchmark/ {
    name = $1; sub(/-[0-9]+$/, "", name)
    for (i = 3; i < NF; i += 2) printf "%s\t%s\tcommit\t%s\n", name, $(i + 1), $i
  }' >>"$values"
grep -q . "$values" || { echo "no benchmark line in $work/micro.txt" >&2; exit 1; }

# e2e_line appends the end-to-end metrics of one run's JSON line.
e2e_line() { # workload side file
  local line
  line=$(tail -n 1 "$3")
  case "$line" in
    *'"correct":true'*'"failed":0,'*) ;;
    *) echo "$1 $2 run did not end correct with 0 failed: $3" >&2; exit 1 ;;
  esac
  # {"metrics":{"name":{"value":V,"unit":"U"},...}} → name:value:V,unit:U
  echo "$line" | sed 's/.*"metrics":{//; s/}}$//' | tr -d '"{' | tr '}' '\n' |
    awk -F'[:,]' -v w="$1" -v s="$2" 'NF >= 5 { printf "%s/%s\t%s\t%s\t%s\n", w, $(NF-4), $NF, s, $(NF-2) }' >>"$values"
}

if [ -n "$pairs" ]; then
  say "parent $parent unpacked under $work/parent"
  rm -rf "$work/parent" && mkdir -p "$work/parent" "$work/pairs"
  git archive "$parent" | tar -x -C "$work/parent"
  first=parent second=commit
  for w in ${pairs//,/ }; do
    for s in $seed_list; do
      for side in $first $second; do
        dir=$root
        [ "$side" = parent ] && dir=$work/parent
        out="$work/pairs/$w-$s-$side.json"
        say "$w seed $s: $side"
        (cd "$dir" && bash bench/run.sh --workload "$w" --seed "$s" --seconds "$seconds" --trace 0) >"$out" 2>"$out.log"
        e2e_line "$w" "$side" "$out"
      done
      read -r first second <<<"$second $first"
    done
  done
fi

# One JSON object per (name, unit, side): sort the samples, then take the
# quartiles by linear interpolation.
json="$root/BENCH_$pr.json"
{
  printf '{\n  "pr": %s,\n  "commit": "%s",\n  "parent": "%s",\n' "$pr" "$commit" "$parent"
  printf '  "go": "%s",\n  "nproc": %s,\n' "$(go env GOVERSION)" "$(nproc)"
  if [ -n "$pairs" ]; then
    printf '  "pairs": {"workloads": "%s", "seeds": "%s", "seconds": %s},\n' "$pairs" "$seeds" "$seconds"
  else
    printf '  "pairs": null,\n'
  fi
  printf '  "metrics": [\n'
  sort -t"$(printf '\t')" -k1,1 -k2,2 -k3,3 -k4,4g "$values" | awk -F'\t' '
    function q(p,   h, lo) {
      h = (n - 1) * p + 1; lo = int(h)
      return lo >= n ? v[n] : v[lo] + (h - lo) * (v[lo + 1] - v[lo])
    }
    function flush() {
      if (n == 0) return
      printf "%s    {\"name\": \"%s\", \"unit\": \"%s\", \"side\": \"%s\", \"median\": %.6g, \"q1\": %.6g, \"q3\": %.6g, \"n\": %d}", sep, key[1], key[2], key[3], q(0.5), q(0.25), q(0.75), n
      sep = ",\n"; n = 0
    }
    { k = $1 SUBSEP $2 SUBSEP $3
      if (k != last) { flush(); last = k; key[1] = $1; key[2] = $2; key[3] = $3 }
      v[++n] = $4 }
    END { flush(); printf "\n" }'
  printf '  ]\n}\n'
} >"$json"
say "wrote $json (raw samples under $work)"
