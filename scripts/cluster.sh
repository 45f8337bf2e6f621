# cluster.sh — the localhost noded cluster the smoke scripts share.
# Source it after setting N, BASE_TCP and BASE_HTTP. It sets TMP (a
# scratch directory, removed on exit after every node still running is
# killed), PEERS (noded's -peers address book) and ADDRS (the nodes'
# client API URLs, comma-separated), and defines:
#
#   say MSG...             print a step header
#   build CMD...           go build ./cmd/CMD into $TMP/CMD
#   start_node I FLAGS...  start node I with extra noded flags in the
#                          background; its output is appended to
#                          $TMP/nodeI.log and its pid is ${PIDS[I]}
#   start_cluster FLAGS... start every node with the same flags
#   wait_healthz [I...]    wait until each node (default: every node)
#                          answers healthz; fail after 30 s
#   client I ARGS...       run `noded client` against node I
#   stop_nodes             kill every node started and wait for it

TMP="$(mktemp -d)"
declare -a PIDS=()
PEERS=""
ADDRS=""
for i in $(seq 1 "$N"); do
  PEERS+="${PEERS:+,}$i=127.0.0.1:$((BASE_TCP + i))"
  ADDRS+="${ADDRS:+,}http://127.0.0.1:$((BASE_HTTP + i))"
done

say() { echo "--- $*"; }

stop_nodes() {
  for pid in "${PIDS[@]:-}"; do
    kill "$pid" 2>/dev/null || true
  done
  wait 2>/dev/null || true
  PIDS=()
}
trap 'stop_nodes; rm -rf "$TMP"' EXIT

build() {
  say "building $*"
  for cmd in "$@"; do
    go build -o "$TMP/$cmd" "./cmd/$cmd"
  done
}

start_node() {
  local i="$1"
  shift
  "$TMP/noded" -id "$i" -peers "$PEERS" -http "127.0.0.1:$((BASE_HTTP + i))" \
    "$@" >>"$TMP/node$i.log" 2>&1 &
  PIDS[i]=$!
}

start_cluster() {
  for i in $(seq 1 "$N"); do
    start_node "$i" "$@"
  done
}

client() {
  local i="$1"
  shift
  "$TMP/noded" client -addr "http://127.0.0.1:$((BASE_HTTP + i))" "$@"
}

wait_healthz() {
  [ $# -gt 0 ] || set -- $(seq 1 "$N")
  for i in "$@"; do
    for _ in $(seq 1 150); do
      client "$i" -timeout 2s healthz >/dev/null 2>&1 && break
      sleep 0.2
    done
    client "$i" -timeout 2s healthz >/dev/null || {
      echo "FAIL: node $i never answered healthz"
      exit 1
    }
  done
}
