#!/usr/bin/env bash
# noded_demo.sh [N] [SHARDS] [DISK] — boot an N-node (default 5) noded
# cluster as real OS processes talking TCP on localhost, with the
# register namespace partitioned over SHARDS (default 1) independent
# service stacks, and drive it through the HTTP client API: bootstrap →
# register writes/reads across every shard → kill one node → delicate
# reconfiguration (all shards) → write/read in the reconfigured cluster.
#
# With DISK=1 every node runs with -data-dir (per-shard WAL +
# snapshots) and two more passes run: the killed node restarts over its
# data directory and rejoins, and then the WHOLE cluster is SIGKILLed
# and restarted — with no live peer to transfer state from, the
# registers can only come back through each node's local snapshot + WAL
# replay.
#
# Exits 0 only if every step succeeded. CI runs this with N=3 SHARDS=4
# and again with N=3 SHARDS=2 DISK=1 as the noded smoke job; developers
# run it with the defaults.
set -euo pipefail

N="${1:-5}"
SHARDS="${2:-${SHARDS:-1}}"
DISK="${3:-${DISK:-0}}"
BASE_TCP="${BASE_TCP:-7140}"
BASE_HTTP="${BASE_HTTP:-8140}"
source "$(dirname "$0")/cluster.sh"

build noded

boot_node() {
  local i="$1"
  local store=()
  if [ "$DISK" = "1" ]; then
    store=(-data-dir "$TMP/data$i" -fsync always -snap-every 8)
  fi
  start_node "$i" -seed 7 -shards "$SHARDS" "${store[@]}"
}

say "booting $N nodes × $SHARDS shards (disk=$DISK, peers: $PEERS)"
for i in $(seq 1 "$N"); do
  boot_node "$i"
done

# Boot-up is polled in two phases: /v1/healthz first (cheap liveness —
# answers as soon as the HTTP server is up, no view lock taken), then
# the full serving wait once every process responds.
say "waiting for every node's API to answer healthz"
wait_healthz

say "waiting for every node to serve"
for i in $(seq 1 "$N"); do
  client "$i" -timeout 120s wait >/dev/null
done
say "cluster is serving"

say "write greeting=hello via node 1, sync-read via node 2"
client 1 put greeting hello >/dev/null
OUT="$(client 2 sync-get greeting)"
echo "$OUT"
echo "$OUT" | grep -q '"value": "hello"' || { echo "FAIL: read mismatch"; exit 1; }

say "writing/reading one register per shard (keys route by hash)"
for k in $(seq 0 $((4 * SHARDS - 1))); do
  client "$(( (k % N) + 1 ))" put "demo-key-$k" "demo-val-$k" >/dev/null
done
for k in $(seq 0 $((4 * SHARDS - 1))); do
  OUT="$(client "$(( ((k + 1) % N) + 1 ))" sync-get "demo-key-$k")"
  echo "$OUT" | grep -q "\"value\": \"demo-val-$k\"" \
    || { echo "FAIL: cross-shard read of demo-key-$k"; exit 1; }
done
HIT="$(client 1 shards | grep -c '"hasView": true' || true)"
[ "$HIT" = "$SHARDS" ] || { echo "FAIL: $HIT of $SHARDS shards have views"; exit 1; }
say "all $SHARDS shards serving with installed views"

say "propose a raw SMR command via node $N and show the log tail"
client "$N" propose audit demo >/dev/null
client 1 log 5

# The first viewCoordinator in the document is the top-level (shard 0)
# one; per-shard entries repeat the field.
COORD="$(client 1 status | grep -o '"viewCoordinator": *[0-9]*' | grep -o '[0-9]*$' | head -1)"
VICTIM="$N"
if [ "$VICTIM" = "$COORD" ]; then VICTIM=$((N - 1)); fi
say "view coordinator is p$COORD — killing non-coordinator p$VICTIM (SIGKILL)"
KILLED_AT="$(date +%s%N)"
kill -9 "${PIDS[$VICTIM]}"

say "waiting for survivors to reconfigure away from p$VICTIM"
for i in $(seq 1 "$N"); do
  [ "$i" = "$VICTIM" ] && continue
  client "$i" -timeout 180s -exclude "$VICTIM" wait >/dev/null
done
# Advisory, not a gate: it includes one client process start per survivor
# and the wait subcommand's polling step. The survivors' kernels refuse
# the redial at once, so detection is a round trip, not a count gap.
say "delicate reconfiguration complete: kill → every survivor serving without p$VICTIM in $(( ($(date +%s%N) - KILLED_AT) / 1000000 )) ms"

say "state survived: reading greeting on a survivor; new write via node 1"
OUT="$(client "$COORD" get greeting)"
echo "$OUT"
echo "$OUT" | grep -q '"value": "hello"' || { echo "FAIL: state lost"; exit 1; }
client 1 put after reconfig >/dev/null
OUT="$(client "$COORD" sync-get after)"
echo "$OUT" | grep -q '"value": "reconfig"' || { echo "FAIL: post-reconfig write"; exit 1; }

if [ "$DISK" = "1" ]; then
  say "storage introspection: every survivor reports a disk backend"
  OUT="$(client 1 storage)"
  echo "$OUT" | grep -q '"kind": "disk"' || { echo "FAIL: no disk backend reported"; exit 1; }
  client 1 snapshot >/dev/null
  client 1 storage | grep -q '"snapshots": 0' && { echo "FAIL: forced snapshot did not land"; exit 1; }

  say "restarting killed node p$VICTIM over its data directory"
  boot_node "$VICTIM"
  wait_healthz "$VICTIM"
  client "$VICTIM" -timeout 180s wait >/dev/null
  OUT="$(client "$VICTIM" sync-get greeting)"
  echo "$OUT" | grep -q '"value": "hello"' || { echo "FAIL: restarted node lost state"; exit 1; }
  say "p$VICTIM rejoined and serves the old registers"

  say "SIGKILLing the WHOLE cluster and restarting every node"
  for i in $(seq 1 "$N"); do
    kill -9 "${PIDS[$i]}" 2>/dev/null || true
  done
  wait 2>/dev/null || true
  for i in $(seq 1 "$N"); do
    boot_node "$i"
  done
  wait_healthz
  for i in $(seq 1 "$N"); do
    client "$i" -timeout 180s wait >/dev/null
  done

  say "registers intact after full-cluster crash (no peer held them — local replay only)"
  OUT="$(client 1 sync-get greeting)"
  echo "$OUT" | grep -q '"value": "hello"' || { echo "FAIL: greeting lost after full-cluster crash"; exit 1; }
  OUT="$(client 2 sync-get after)"
  echo "$OUT" | grep -q '"value": "reconfig"' || { echo "FAIL: after lost after full-cluster crash"; exit 1; }
  for k in $(seq 0 $((4 * SHARDS - 1))); do
    OUT="$(client "$(( (k % N) + 1 ))" sync-get "demo-key-$k")"
    echo "$OUT" | grep -q "\"value\": \"demo-val-$k\"" \
      || { echo "FAIL: demo-key-$k lost after full-cluster crash"; exit 1; }
  done
  client 1 storage | grep -q '"recovered": true' || { echo "FAIL: no shard reports recovery"; exit 1; }

  say "SUCCESS: $N-node × $SHARDS-shard disk-backed cluster survived node kill, rejoin, and full-cluster crash via local WAL/snapshot replay"
else
  say "SUCCESS: $N-node × $SHARDS-shard cluster bootstrapped, survived a kill via delicate reconfiguration, and kept serving"
fi
