// Command noded runs one processor of the self-stabilizing
// reconfiguration stack as a real networked process: a core.Node with
// the vs/smr/regmem service stack on the TCP transport backend, plus a
// small HTTP API for clients. A shell script can drive a live cluster
// through bootstrap → crash → delicate reconfiguration → recovery (see
// scripts/noded_demo.sh).
//
// Daemon:
//
//	noded -id 1 -peers "1=127.0.0.1:7101,2=127.0.0.1:7102,..." \
//	      -http 127.0.0.1:8101 [-members 1,2,3] [-join-timeout 60s] [-seed 1] [-shards 4] \
//	      [-batch 16] [-window 4] \
//	      [-loss 0.02] [-dup 0.01] [-tick 2ms] \
//	      [-data-dir /var/lib/noded-1] [-fsync always|snapshot] [-snap-every 1024] \
//	      [-log-level info] [-log-format text|json] [-pprof]
//
// Observability: the HTTP listener always serves GET /metrics
// (Prometheus text exposition format, every subsystem instrumented —
// see DESIGN.md §13) and, with -pprof, the net/http/pprof profiles
// under /debug/pprof/. Logs are structured (log/slog) with a component
// tag per subsystem; -log-level sets the threshold and -log-format
// picks text or JSON encoding. Startup logs one line with the node's
// full effective configuration, shutdown one line with the reason.
//
// With -data-dir each shard keeps a per-shard write-ahead log and
// compacted snapshots under the directory and recovers its registers
// from them at boot — a restarted node resumes from local state instead
// of a full state transfer. -fsync picks the durability policy and
// -snap-every the automatic compaction threshold; GET /v1/storage (or
// `noded client storage`) reports the live counters, and
// POST /v1/storage/snapshot (`noded client snapshot [shard]`) forces a
// compaction.
//
// With -shards N the register namespace is partitioned over N
// independent vs/smr/regmem stacks (one view, coordinator and round
// pipeline each) multiplexed over the node's single reconfiguration
// layer and transport; register names route to shards by deterministic
// hash, so every node and client agrees on placement.
//
// With -batch B the hot path batches: up to B application payloads ride
// one datalink token cycle and up to B submitted commands ride one
// multicast round input (DESIGN.md §11). With -window W up to W token
// cycles stay in flight per link (pipelining, DESIGN.md §14). Both knobs
// must be uniform across the cluster. Nodes speak one wire format
// (transport/wire) and refuse a peer running any other at connect time,
// so a cluster is upgraded whole, not node by node.
//
// The HTTP surface is the versioned /v1 contract defined in
// repro/pkg/api (typed documents, uniform JSON error envelope); the
// client subcommand is a thin CLI over the cluster-aware
// repro/pkg/client (multi-endpoint failover, client-side shard
// routing). Use repro/cmd/nodeload to put load on a cluster.
//
// Client:
//
//	noded client -addr http://127.0.0.1:8101 status
//	noded client -addr url1,url2,... [-shards 4] ...   # failover + shard routing
//	noded client -addr ... healthz
//	noded client -addr ... wait [-exclude 3] [-timeout 60s]
//	noded client -addr ... put <register> <value>
//	noded client -addr ... get <register> | sync-get <register>
//	noded client -addr ... shards
//	noded client -addr ... [-shard 2] propose <key> <value>
//	noded client -addr ... [-shard 2] log
//	noded client -addr ... storage
//	noded client -addr ... snapshot [shard]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/datalink"
	"repro/internal/ids"
	"repro/internal/obs"
	"repro/internal/storage"
	"repro/internal/transport"
	"repro/internal/transport/tcp"
	"repro/internal/transport/wire"
)

func main() {
	args := os.Args[1:]
	var err error
	if len(args) > 0 && args[0] == "client" {
		err = runClient(args[1:])
	} else {
		err = runDaemon(args)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "noded:", err)
		os.Exit(1)
	}
}

func runDaemon(args []string) error {
	fs := flag.NewFlagSet("noded", flag.ContinueOnError)
	var (
		id       = fs.Int("id", 0, "this node's identifier (>= 1, required)")
		peers    = fs.String("peers", "", `cluster address book "1=host:port,2=host:port,..." (required)`)
		httpAddr = fs.String("http", "127.0.0.1:0", "client API listen address")
		members  = fs.String("members", "", `initial configuration ids "1,2,3" ("none" to start as a joiner; default: all peers)`)
		joinTO   = fs.Duration("join-timeout", 0, "with -members none: exit nonzero if the joiner has not reached serving within this deadline (0 = wait forever)")
		seed     = fs.Int64("seed", 1, "random seed component")
		loss     = fs.Float64("loss", 0, "injected packet loss probability")
		dup      = fs.Float64("dup", 0, "injected packet duplication probability")
		tick     = fs.Duration("tick", 2*time.Millisecond, "node timer period")
		jitter   = fs.Duration("jitter", time.Millisecond, "node timer jitter bound")
		capacity = fs.Int("capacity", 256, "bounded link/queue capacity")
		shards   = fs.Int("shards", 1, "register namespace shards (independent service stacks)")
		batch    = fs.Int("batch", 1, "hot-path batch bound: payloads per datalink token and commands per round (cluster-uniform; 1 = unbatched)")
		window   = fs.Int("window", 1, "pipelined datalink window: in-flight token cycles per link (cluster-uniform; 1 = stop-and-wait)")
		maxN     = fs.Int("maxn", 16, "system bound N (failure detector sizing)")
		opTO     = fs.Duration("op-timeout", 30*time.Second, "write/sync-read completion deadline")
		dataDir  = fs.String("data-dir", "", "durable storage directory (per-shard WAL + snapshots; empty = in-memory only)")
		fsyncStr = fs.String("fsync", "always", `disk durability policy: "always" (fsync per append) or "snapshot" (fsync only at snapshots)`)
		snapEv   = fs.Uint64("snap-every", 1024, "compact the WAL into a snapshot every N records (0 = only on demand)")
		verbose  = fs.Bool("v", false, "log transport diagnostics")
		logLevel = fs.String("log-level", "info", `log threshold: "debug", "info", "warn" or "error"`)
		logFmt   = fs.String("log-format", "text", `log encoding: "text" or "json"`)
		pprofOn  = fs.Bool("pprof", false, "serve net/http/pprof profiles on the client API under /debug/pprof/")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	level, err := obs.ParseLevel(*logLevel)
	if err != nil {
		return err
	}
	logger, err := obs.NewLogger(os.Stderr, level, *logFmt)
	if err != nil {
		return err
	}
	book, err := parsePeers(*peers)
	if err != nil {
		return err
	}
	self := ids.ID(*id)
	if !self.Valid() {
		return fmt.Errorf("-id is required and must be >= 1")
	}
	if _, ok := book[self]; !ok {
		return fmt.Errorf("-peers has no entry for own id %v", self)
	}
	initial, err := parseMembers(*members, book)
	if err != nil {
		return err
	}

	cfg := tcp.Config{
		Addrs: book,
		// Decorrelate per-process randomness while keeping runs
		// reproducible from (seed, id).
		Seed: *seed*1_000_003 + int64(self),
		Opts: transport.Options{
			Capacity:   *capacity,
			LossProb:   *loss,
			DupProb:    *dup,
			TickEvery:  *tick,
			TickJitter: *jitter,
		},
	}
	// Transport diagnostics flow through the structured logger: always
	// at debug (visible with -log-level debug), promoted to info by -v.
	tcpLog := obs.Component(logger, "tcp")
	cfg.Logf = func(format string, a ...any) { tcpLog.Debug(fmt.Sprintf(format, a...)) }
	if *verbose {
		cfg.Logf = func(format string, a ...any) { tcpLog.Info(fmt.Sprintf(format, a...)) }
	}
	tr := tcp.New(cfg)
	defer tr.Close()

	if *shards < 1 {
		return fmt.Errorf("-shards must be >= 1")
	}
	if *batch < 1 {
		return fmt.Errorf("-batch must be >= 1")
	}
	if *batch > wire.MaxWireBatch {
		// Peers' readers refuse larger batches outright; a full queue
		// draining into one packet would wedge the link forever.
		return fmt.Errorf("-batch %d exceeds the wire codec's per-packet bound %d", *batch, wire.MaxWireBatch)
	}
	if *window < 1 || *window > datalink.MaxWindow {
		// Beyond the structural clamp the mod-256 sequence discipline
		// could confuse an in-flight cycle with a stale ack; refuse
		// rather than silently clamp a cluster-uniform knob.
		return fmt.Errorf("-window %d outside supported range 1..%d", *window, datalink.MaxWindow)
	}
	fsync, ok := storage.ParseFsync(*fsyncStr)
	if !ok {
		return fmt.Errorf(`-fsync %q: want "always" or "snapshot"`, *fsyncStr)
	}
	storLog := obs.Component(logger, "storage")
	dcfg := DaemonConfig{
		Peers:     bookIDs(book),
		Members:   initial,
		Shards:    *shards,
		Batch:     *batch,
		Window:    *window,
		MaxN:      *maxN,
		OpTimeout: *opTO,
		DataDir:   *dataDir,
		Fsync:     fsync,
		SnapEvery: *snapEv,
		Pprof:     *pprofOn,
		Logf:      func(format string, a ...any) { storLog.Warn(fmt.Sprintf(format, a...)) },
	}
	d, err := NewDaemon(tr, self, dcfg)
	if err != nil {
		logger.Error("bootstrap failed", "id", int(self), "err", err)
		return err
	}
	// One line per connection-loss hint the failure detector acted on.
	fdLog := obs.Component(logger, "fd")
	tr.Inspect(self, func() {
		d.Node().ObservePeerDown(func(peer ids.ID) {
			fdLog.Info("peer down: connection lost and redial failed", "peer", int(peer))
		})
	})

	ln, err := net.Listen("tcp", *httpAddr)
	if err != nil {
		logger.Error("client API listen failed", "id", int(self), "addr", *httpAddr, "err", err)
		return fmt.Errorf("client API listen: %w", err)
	}
	logger.Info("noded started",
		"id", int(self),
		"transport", book[self],
		"http", ln.Addr().String(),
		"members", setInts(initial),
		"shards", *shards,
		"batch", *batch,
		"window", *window,
		"data_dir", *dataDir,
		"fsync", fsync.String(),
		"snap_every", *snapEv,
		"join_timeout", joinTO.String(),
		"pprof", *pprofOn,
	)
	srv := &http.Server{Handler: d.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	// A joiner that is never adopted (dead cluster, partition, admission
	// refused) would otherwise poll Algorithm 3.3 forever with no
	// distinct diagnostic; the watchdog turns that into a structured
	// join_timeout failure churn harnesses and scripts can assert on.
	joinc := make(chan struct{})
	if initial.Empty() && *joinTO > 0 {
		go joinWatchdog(d, *joinTO, joinc)
	}

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		logger.Info("noded shutting down", "id", int(self), "reason", sig.String())
		return shutdown(srv, d)
	case <-joinc:
		logger.Error("noded shutting down", "id", int(self), "reason", "join_timeout",
			"join_timeout", joinTO.String())
		return errors.Join(fmt.Errorf("joiner not serving within -join-timeout %s", *joinTO), shutdown(srv, d))
	case err := <-errc:
		logger.Error("noded shutting down", "id", int(self), "reason", err.Error())
		return errors.Join(err, d.Close())
	}
}

// shutdown drains the client API, dropping what is still in flight after
// two seconds, then stops the node and closes its storage (Daemon.Close).
func shutdown(srv *http.Server, d *Daemon) error {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if srv.Shutdown(ctx) != nil {
		srv.Close()
	}
	return d.Close()
}

// joinWatchdog polls the daemon's status until it reports serving,
// closing c if the deadline passes first. Only started for -members
// none processes with a nonzero -join-timeout.
func joinWatchdog(d *Daemon, timeout time.Duration, c chan struct{}) {
	deadline := time.Now().Add(timeout)
	tick := time.NewTicker(100 * time.Millisecond)
	defer tick.Stop()
	for range tick.C {
		if st, ok := d.status(); ok && st.Serving {
			return
		}
		if time.Now().After(deadline) {
			close(c)
			return
		}
	}
}

// parsePeers parses "1=host:port,2=host:port" into an address book.
func parsePeers(s string) (map[ids.ID]string, error) {
	if strings.TrimSpace(s) == "" {
		return nil, fmt.Errorf("-peers is required")
	}
	book := make(map[ids.ID]string)
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		id, addr, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("peer %q: want id=host:port", part)
		}
		n, err := strconv.Atoi(strings.TrimSpace(id))
		if err != nil || !ids.ID(n).Valid() {
			return nil, fmt.Errorf("peer %q: bad id", part)
		}
		addr = strings.TrimSpace(addr)
		if addr == "" {
			return nil, fmt.Errorf("peer %q: empty address", part)
		}
		if _, dup := book[ids.ID(n)]; dup {
			return nil, fmt.Errorf("peer %q: duplicate id", part)
		}
		book[ids.ID(n)] = addr
	}
	if len(book) == 0 {
		return nil, fmt.Errorf("-peers is empty")
	}
	return book, nil
}

// parseMembers parses the initial configuration: "" = all peers,
// "none" = start as a joiner, otherwise a comma list of ids.
func parseMembers(s string, book map[ids.ID]string) (ids.Set, error) {
	s = strings.TrimSpace(s)
	switch s {
	case "":
		return bookIDs(book), nil
	case "none":
		return ids.Set{}, nil
	}
	out := ids.Set{}
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || !ids.ID(n).Valid() {
			return ids.Set{}, fmt.Errorf("member %q: bad id", part)
		}
		out = out.Add(ids.ID(n))
	}
	return out, nil
}

func bookIDs(book map[ids.ID]string) ids.Set {
	out := ids.Set{}
	for id := range book {
		out = out.Add(id)
	}
	return out
}

func setInts(s ids.Set) []int {
	out := make([]int, 0, s.Size())
	s.Each(func(id ids.ID) { out = append(out, int(id)) })
	sort.Ints(out)
	return out
}
