// Command nodeload is the client-side load generator for a noded
// cluster (ROADMAP: compare simnet-predicted E9/E11 latency with live
// TCP numbers). It drives concurrent clients through the public
// repro/pkg/client — multi-endpoint failover, client-side shard
// routing — against the cluster's /v1 API, checks afterwards that every
// acknowledged write survived, and reports throughput plus p50/p95/p99
// latency per operation class (write, sync-read), emitted through the
// experiment engine's table/CSV/JSON writers so live numbers land in
// the same formats as the simnet experiment tables.
//
// Usage:
//
//	nodeload -addrs http://127.0.0.1:8141,http://127.0.0.1:8142,... \
//	         [-clients 4] [-duration 5s] [-warmup 0s] [-ratio 0.5] \
//	         [-shards 1] [-keys 4] [-timeout 10s] [-wait 60s] [-seed 1] \
//	         [-format table|csv|json] [-out DIR]
//
//	nodeload -noded ./bin/noded [-nodes 3] [-churn-kills 1] \
//	         [-churn-join] [-join-timeout 60s] [-data-root DIR] \
//	         [-batch 1] [-window 1] ...workload flags as above
//
// With -addrs, nodeload loads an external cluster. With -noded it is
// the chaos harness (DESIGN.md §16): it supervises its own cluster
// instead, booting -nodes noded processes (TCP transport, per-node
// -data-dir under -data-root, fsync always), and on a schedule derived
// only from -seed SIGKILLs victims mid-load, restarts them over the
// same data directory, and boots one fresh `-members none` joiner that
// must be adopted through the joining mechanism over real sockets. The
// report then gains churn.* series (recovery time, join adoption time),
// and the run exits nonzero if the joiner is never adopted or the
// schedule cannot complete.
//
// Both modes run one workload: every key has exactly one writer (keys
// are striped over the -clients workers, so there must be at least one
// key per worker), and each write carries that key's rising sequence.
// After the load the cluster settles, every key with an acknowledged
// write is sync-read back, and the survival.* series count the keys and
// the acknowledged writes that vanished; any loss exits nonzero.
//
// A SIGINT/SIGTERM mid-run does not discard the measurements: the
// workload stops, a partial report is still emitted with the
// run.truncated series set to 1, and nodeload exits nonzero.
//
// -ratio is the write fraction of the mixed workload (the rest are
// sync-reads, the linearizable read path). With -shards N the key set
// is built from shard.NamesPerShard so every shard receives traffic,
// and the shared client routes each key's requests to the shard's
// preferred endpoint — the client-side shard-aware connection pool.
// -warmup excludes the run's first ops from accounting: operations
// completing inside the warmup window (connection setup, first-request
// link cleaning) are executed but not measured, and throughput divides
// by the post-warmup elapsed time only.
//
// At end of run nodeload scrapes each endpoint's /metrics page,
// strict-parses it, and folds the summed server-side counters (shard
// ops, vs rounds, datalink cycles, tcp frames, storage appends, http
// requests) into the same report as server.* series, so one artifact
// correlates client-observed latency with cluster internals.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/experiments/engine"
	"repro/internal/obs"
	"repro/internal/shard"
	"repro/pkg/api"
	"repro/pkg/client"
)

func main() {
	cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		fatal(err)
	}
	// An interrupted run (Ctrl-C, CI timeout's SIGTERM) must still emit
	// its report: the context unwinds the workers, and the partial
	// report goes out with run.truncated=1 before the nonzero exit.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	err = run(ctx, cfg)
	stop()
	if err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "nodeload:", err)
	os.Exit(1)
}

// run is nodeload's one run path: boot the supervised cluster (with
// -noded only), drive the load — with the churn timeline beside it when
// nodeload owns the cluster — check acked-write survival, then emit the
// report and turn what it found into the exit status.
func run(ctx context.Context, cfg config) error {
	var sup *supervisor
	if cfg.noded != "" {
		s, stopCluster, err := bootCluster(cfg)
		defer stopCluster()
		if err != nil {
			return err
		}
		sup = s
		for _, n := range sup.nodes {
			cfg.addrs = append(cfg.addrs, "http://"+n.httpAddr)
		}
	}
	c, err := client.New(cfg.addrs,
		client.WithShards(cfg.shards), client.WithTimeout(cfg.timeout),
		client.WithBackoffSeed(cfg.seed))
	if err != nil {
		return err
	}
	defer c.Close()
	if cfg.wait > 0 {
		wctx, cancel := context.WithTimeout(ctx, cfg.wait)
		err := waitCluster(wctx, cfg)
		cancel()
		if err != nil {
			return err
		}
	}
	fmt.Fprintf(os.Stderr, "nodeload: %d clients × %v (+%v warmup) against %d endpoint(s), write ratio %.2f, %d shard(s), %d key(s)\n",
		cfg.clients, cfg.duration, cfg.warmup, len(cfg.addrs), cfg.ratio, cfg.shards, cfg.keys*cfg.shards)

	measureStart := time.Now().Add(cfg.warmup)
	driven := make(chan result, 1)
	go func() { driven <- drive(ctx, c, cfg) }()
	var m *churnMeasure
	if sup != nil {
		m = sup.churn(ctx, measureStart)
	}
	res := <-driven
	res.truncated = ctx.Err() != nil

	if !res.truncated {
		// Settle: let commands still queued inside the cluster drain
		// through their rounds before the survival reads.
		time.Sleep(1500 * time.Millisecond)
		// -wait may be 0 (no serve-wait); one operation deadline on top
		// keeps the bound positive.
		vctx, cancel := context.WithTimeout(context.Background(), cfg.wait+cfg.timeout)
		res.lost, res.lostNote = verifySurvival(vctx, c, res.acked)
		cancel()
	}

	// An adopted joiner joins the scrape set so its repro_join_*
	// families land in the report.
	if m != nil && m.joined {
		cfg.addrs = append(cfg.addrs, "http://"+sup.joiner.httpAddr)
	}
	rep := buildReport(cfg, res, scrapeCluster(cfg), m)
	if err := engine.Emit(rep, cfg.format, cfg.out); err != nil {
		return err
	}
	switch {
	case res.truncated:
		return fmt.Errorf("interrupted: partial report emitted (truncated=true)")
	case m != nil && m.note != "":
		return fmt.Errorf("churn schedule incomplete: %s", m.note)
	case res.lost > 0:
		return fmt.Errorf("%d acked write(s) lost (%s)", res.lost, res.lostNote)
	case m != nil && cfg.churnJoin && !m.joined:
		return fmt.Errorf("joiner was never adopted")
	case res.write.ops+res.sread.ops == 0:
		return fmt.Errorf("no operation completed (write errs %d, sync-read errs %d, last: %v)",
			res.write.errs, res.sread.errs, res.lastErr)
	}
	return nil
}

type config struct {
	addrs    []string
	clients  int
	duration time.Duration
	warmup   time.Duration
	ratio    float64
	shards   int
	keys     int
	timeout  time.Duration
	wait     time.Duration
	seed     int64
	format   string
	out      string

	// supervised cluster (-noded: the chaos harness)
	noded       string
	nodes       int
	churnKills  int
	churnJoin   bool
	joinTimeout time.Duration
	dataRoot    string
	batch       int
	window      int
}

func parseFlags(args []string) (config, error) {
	fs := flag.NewFlagSet("nodeload", flag.ContinueOnError)
	var (
		addrs    = fs.String("addrs", "", "comma-separated daemon API base URLs of an external cluster (all nodes, for failover + shard routing); or give -noded")
		clients  = fs.Int("clients", 4, "concurrent client workers, each the only writer of its keys (at most -keys × -shards)")
		duration = fs.Duration("duration", 5*time.Second, "workload duration (measured window; warmup runs before it)")
		warmup   = fs.Duration("warmup", 0, "unmeasured lead-in: ops completing in this window are excluded from the report")
		ratio    = fs.Float64("ratio", 0.5, "write fraction of the mix (rest are sync-reads), 0..1")
		shards   = fs.Int("shards", 1, "cluster shard count (shard-aware key routing)")
		keys     = fs.Int("keys", 4, "distinct registers per shard")
		timeout  = fs.Duration("timeout", 10*time.Second, "per-operation deadline")
		wait     = fs.Duration("wait", 60*time.Second, "wait for every endpoint to serve before loading (0 = skip)")
		seed     = fs.Int64("seed", 1, "workload random seed")
		format   = fs.String("format", "table", "output format: table, csv or json")
		out      = fs.String("out", "", "write results to files in DIR instead of stdout")

		noded    = fs.String("noded", "", "path to the noded binary: supervise its own cluster and inject kill/restart + join churn mid-load (instead of -addrs)")
		nodes    = fs.Int("nodes", 3, "with -noded: initial cluster size")
		kills    = fs.Int("churn-kills", 1, "with -noded: SIGKILL/restart cycles on the seeded schedule")
		join     = fs.Bool("churn-join", true, "with -noded: also start one fresh -members none joiner mid-run")
		joinTO   = fs.Duration("join-timeout", 60*time.Second, "with -noded: joiner's -join-timeout (it must be adopted within this)")
		dataRoot = fs.String("data-root", "", "with -noded: parent directory for per-node -data-dir (default: a temp dir, removed afterwards)")
		batch    = fs.Int("batch", 1, "with -noded: noded -batch (hot-path batch bound)")
		window   = fs.Int("window", 1, "with -noded: noded -window (pipelined datalink window)")
	)
	if err := fs.Parse(args); err != nil {
		return config{}, err
	}
	cfg := config{
		clients: *clients, duration: *duration, warmup: *warmup, ratio: *ratio,
		shards: *shards, keys: *keys, timeout: *timeout, wait: *wait,
		seed: *seed, format: *format, out: *out,
		noded: *noded, nodes: *nodes, churnKills: *kills,
		churnJoin: *join, joinTimeout: *joinTO, dataRoot: *dataRoot,
		batch: *batch, window: *window,
	}
	for _, a := range strings.Split(*addrs, ",") {
		if a = strings.TrimSpace(a); a != "" {
			cfg.addrs = append(cfg.addrs, a)
		}
	}
	if cfg.noded != "" {
		if len(cfg.addrs) > 0 {
			return config{}, fmt.Errorf("-addrs and -noded are mutually exclusive (-noded supervises its own cluster)")
		}
		if cfg.nodes < 2 {
			return config{}, fmt.Errorf("-nodes must be >= 2 (churn needs survivors)")
		}
		if cfg.churnKills < 0 {
			return config{}, fmt.Errorf("-churn-kills must be >= 0")
		}
		if cfg.batch < 1 || cfg.window < 1 {
			return config{}, fmt.Errorf("-batch and -window must be >= 1")
		}
	} else if len(cfg.addrs) == 0 {
		return config{}, fmt.Errorf("-addrs or -noded is required")
	}
	if cfg.clients < 1 {
		return config{}, fmt.Errorf("-clients must be >= 1")
	}
	if cfg.duration <= 0 {
		return config{}, fmt.Errorf("-duration must be positive")
	}
	if cfg.warmup < 0 {
		return config{}, fmt.Errorf("-warmup must be >= 0")
	}
	if cfg.ratio < 0 || cfg.ratio > 1 {
		return config{}, fmt.Errorf("-ratio must be in [0,1]")
	}
	if cfg.shards < 1 {
		return config{}, fmt.Errorf("-shards must be >= 1")
	}
	if cfg.keys < 1 {
		return config{}, fmt.Errorf("-keys must be >= 1")
	}
	if cfg.clients > cfg.keys*cfg.shards {
		return config{}, fmt.Errorf("-clients %d exceeds the %d keys (-keys × -shards): every worker needs a key of its own",
			cfg.clients, cfg.keys*cfg.shards)
	}
	if err := engine.CheckFormat(cfg.format); err != nil {
		return config{}, err
	}
	return cfg, nil
}

// waitCluster waits for every endpoint individually: load must only
// start once each node serves, not merely some node.
func waitCluster(ctx context.Context, cfg config) error {
	for _, a := range cfg.addrs {
		one, err := client.New([]string{a}, client.WithShards(cfg.shards))
		if err != nil {
			return err
		}
		_, err = one.WaitServing(ctx, 0)
		one.Close()
		if err != nil {
			return fmt.Errorf("endpoint %s never served: %w", a, err)
		}
	}
	return nil
}

// classStats accumulates one operation class's measurements.
type classStats struct {
	latMS []float64 // completed-operation latencies, milliseconds
	ops   int
	errs  int
}

func (s *classStats) merge(o classStats) {
	s.latMS = append(s.latMS, o.latMS...)
	s.ops += o.ops
	s.errs += o.errs
}

type result struct {
	write, sread classStats
	elapsed      time.Duration
	lastErr      error
	acked        map[string]int // key -> highest acknowledged write sequence

	// Filled in after the load: whether it was interrupted, and how
	// many acknowledged writes the survival check found lost (lostNote
	// names the first).
	truncated bool
	lost      int
	lostNote  string
}

// drive runs the mixed workload: cfg.clients workers sharing one
// cluster client, each the only writer of its keys (striped over the
// workers, spread over every shard), picking one of its keys and an
// operation (write with probability cfg.ratio, else sync-read) per
// iteration until the duration elapses. A write's value carries the
// key's rising sequence ("c<seq>"), which is what makes acked-write
// survival checkable after the run. Operations completing inside the
// warmup window run but are excluded from the stats (connection setup,
// first-request link cleaning), and elapsed time — hence throughput —
// counts from the end of warmup only.
func drive(ctx context.Context, c *client.Client, cfg config) result {
	keys := make([]string, 0, cfg.shards*cfg.keys)
	for _, group := range shard.NamesPerShard(cfg.shards, cfg.keys) {
		keys = append(keys, group...)
	}
	res := result{acked: make(map[string]int)}
	var mu sync.Mutex
	start := time.Now()
	measureStart := start.Add(cfg.warmup)
	deadline := measureStart.Add(cfg.duration)
	var wg sync.WaitGroup
	for w := 0; w < cfg.clients; w++ {
		var own []string
		for i := w; i < len(keys); i += cfg.clients {
			own = append(own, keys[i])
		}
		wg.Add(1)
		go func(w int, own []string) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.seed + int64(w)*7919))
			seqs := make(map[string]int, len(own))
			acked := make(map[string]int, len(own))
			var write, sread classStats
			var lastErr error
			for ctx.Err() == nil && time.Now().Before(deadline) {
				key := own[rng.Intn(len(own))]
				isWrite := rng.Float64() < cfg.ratio
				t0 := time.Now()
				var err error
				if isWrite {
					seqs[key]++
					_, err = c.Write(ctx, key, fmt.Sprintf("c%d", seqs[key]))
					if err == nil {
						acked[key] = seqs[key]
					}
				} else {
					_, err = c.SyncRead(ctx, key)
				}
				done := time.Now()
				lat := done.Sub(t0)
				if done.Before(measureStart) {
					// Warmup op: executed for its side effects only. Failures
					// still surface through lastErr so an entirely-broken
					// cluster is reported, but they don't skew the counters.
					if err != nil {
						lastErr = err
					}
					continue
				}
				st := &sread
				if isWrite {
					st = &write
				}
				if err != nil {
					st.errs++
					lastErr = err
					continue
				}
				st.ops++
				st.latMS = append(st.latMS, float64(lat)/float64(time.Millisecond))
			}
			mu.Lock()
			res.write.merge(write)
			res.sread.merge(sread)
			for k, s := range acked {
				res.acked[k] = s // single writer per key: no conflicts
			}
			if lastErr != nil {
				res.lastErr = lastErr
			}
			mu.Unlock()
		}(w, own)
	}
	wg.Wait()
	res.elapsed = time.Since(measureStart)
	if d := deadline.Sub(measureStart); res.elapsed > d && ctx.Err() == nil {
		res.elapsed = d
	}
	return res
}

// verifySurvival sync-reads every key that had an acknowledged write
// and counts the ones whose final value regressed below the last
// acknowledged sequence (or vanished outright). A lower sequence or a
// missing register means an acknowledged write vanished — the
// failover-path loss the chaos harness exists to flush out. (An
// unacknowledged write may legitimately land late and win; the settle
// window plus round-ordered application makes that a non-issue in
// practice, and the check errs toward reporting it.)
func verifySurvival(ctx context.Context, c *client.Client, acked map[string]int) (lost int, detail string) {
	keys := make([]string, 0, len(acked))
	for k := range acked {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, key := range keys {
		want := acked[key]
		var got string
		var found bool
		// A node mid-recovery can fail a first read; retry briefly
		// before declaring the write lost.
		for attempt := 0; attempt < 5; attempt++ {
			r, err := c.SyncRead(ctx, key)
			if err == nil {
				got, found = r.Value, r.Found
				break
			}
			if ctx.Err() != nil {
				break
			}
			time.Sleep(200 * time.Millisecond)
		}
		seq := -1
		if found {
			if n, err := strconv.Atoi(strings.TrimPrefix(got, "c")); err == nil {
				seq = n
			}
		}
		if seq < want {
			lost++
			if detail == "" {
				detail = fmt.Sprintf("first loss: %s acked c%d, read %q", key, want, got)
			}
		}
	}
	return lost, detail
}

// percentile returns the p-th percentile (nearest-rank) of a sorted
// sample; 0 for an empty one.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// buildReport folds the measurements into an engine.Report so the
// engine's emitters (table for humans, CSV/JSON for tooling and CI)
// render it; N is the client count, the report's natural x-axis. m is
// the churn timeline's record, nil when nodeload did not supervise the
// cluster.
func buildReport(cfg config, res result, srv *serverCounters, m *churnMeasure) *engine.Report {
	secs := res.elapsed.Seconds()
	if secs <= 0 {
		secs = 1e-9
	}
	note := fmt.Sprintf("%d clients, %v, ratio %.2f, %d shards, %d endpoints",
		cfg.clients, res.elapsed.Round(time.Millisecond), cfg.ratio, cfg.shards, len(cfg.addrs))
	rep := &engine.Report{Seed: cfg.seed, Repeats: 1}
	// add appends one single-value series: a cell plus its summary line.
	add := func(series, metric string, value float64, valid bool, rowNote string) {
		rep.Cells = append(rep.Cells, engine.Result{
			Cell:  engine.Cell{Experiment: "nodeload", Series: series, N: cfg.clients, Seed: cfg.seed},
			Value: value, Valid: valid, Note: rowNote,
		})
		rep.Summary = append(rep.Summary, engine.Summary{
			Experiment: "nodeload", Series: series, Metric: metric,
			N: cfg.clients, Repeats: 1, Valid: b2i(valid),
			Mean: value, Min: value, Max: value,
		})
	}
	class := func(name string, st classStats) {
		sort.Float64s(st.latMS)
		ok := st.ops > 0
		add(name+".ops", "count", float64(st.ops), ok, note)
		add(name+".throughput_ops_s", "ops/s", float64(st.ops)/secs, ok, "")
		add(name+".p50_ms", "ms", percentile(st.latMS, 50), ok, "")
		add(name+".p95_ms", "ms", percentile(st.latMS, 95), ok, "")
		add(name+".p99_ms", "ms", percentile(st.latMS, 99), ok, "")
		add(name+".errors", "count", float64(st.errs), true, "")
	}
	class("write", res.write)
	class("sync-read", res.sread)
	total := res.write.ops + res.sread.ops
	add("total.throughput_ops_s", "ops/s", float64(total)/secs, total > 0, "")
	// Server-side counters from the end-of-run /metrics scrape, summed
	// across endpoints, so one report correlates client-observed
	// latency with what the cluster internally did during the run.
	if srv != nil {
		srvNote := fmt.Sprintf("summed over %d/%d scraped endpoint(s)", srv.scraped, len(cfg.addrs))
		for _, sm := range serverMetrics {
			add("server."+sm.series, sm.metric, srv.totals[sm.family], srv.scraped > 0, srvNote)
			srvNote = ""
		}
	}
	if m != nil {
		ok := m.note == ""
		churnNote := fmt.Sprintf("%d nodes, %d kill(s), join=%v, seed %d", cfg.nodes, m.kills, cfg.churnJoin, cfg.seed)
		if !ok {
			churnNote += "; " + m.note
		}
		add("churn.kills", "count", float64(m.kills), m.kills == cfg.churnKills && ok, churnNote)
		add("churn.recovery_time_ms", "ms", float64(m.recoveryMax)/float64(time.Millisecond), m.kills > 0 && ok, "max over kill/restart cycles: SIGKILL -> serving again")
		add("churn.join_adopt_ms", "ms", float64(m.joinAdopt)/float64(time.Millisecond), m.joined || !cfg.churnJoin, "joiner exec -> adopted + serving")
	}
	add("survival.acked_keys", "count", float64(len(res.acked)), len(res.acked) > 0, "")
	add("survival.lost_acked_writes", "count", float64(res.lost), !res.truncated && res.lost == 0, res.lostNote)
	add("run.truncated", "bool", b2f(res.truncated), !res.truncated, "")
	return rep
}

// serverMetrics are the /metrics families folded into the report.
var serverMetrics = []struct {
	series, metric, family string
}{
	{"shard_ops", "count", "repro_shard_ops_total"},
	{"vs_rounds", "count", "repro_vs_rounds_applied_total"},
	{"vs_view_changes", "count", "repro_vs_views_installed_total"},
	{"datalink_cycles", "count", "repro_datalink_cycles_total"},
	{"datalink_batches", "count", "repro_datalink_batches_total"},
	{"datalink_evictions", "count", "repro_datalink_evictions_total"},
	{"datalink_inflight", "gauge", "repro_datalink_inflight_window"},
	{"tcp_conn_writes", "count", "repro_tcp_conn_writes_total"},
	{"tcp_frames_written", "count", "repro_tcp_frames_written_total"},
	{"tcp_redials", "count", "repro_tcp_redials_total"},
	{"storage_appends", "count", "repro_storage_appends_total"},
	{"storage_snapshots", "count", "repro_storage_snapshots_total"},
	{"http_requests", "count", "repro_http_requests_total"},
}

// serverCounters aggregates the cluster's scraped counter families.
type serverCounters struct {
	totals  map[string]float64
	scraped int
}

// scrapeCluster pulls every endpoint's /metrics page once the load is
// done, strict-parses each, and sums the folded families. A node that
// fails to scrape (old binary, crashed during the run) is skipped with
// a warning — the client-side report must still come out.
func scrapeCluster(cfg config) *serverCounters {
	out := &serverCounters{totals: make(map[string]float64)}
	hc := &http.Client{Timeout: cfg.timeout}
	for _, a := range cfg.addrs {
		fams, err := scrapeOne(hc, a)
		if err != nil {
			fmt.Fprintf(os.Stderr, "nodeload: warning: scrape %s/metrics: %v (skipping)\n", a, err)
			continue
		}
		out.scraped++
		for _, m := range serverMetrics {
			out.totals[m.family] += obs.SumFamily(fams[m.family])
		}
	}
	return out
}

func scrapeOne(hc *http.Client, base string) (map[string]*obs.Family, error) {
	resp, err := hc.Get(strings.TrimRight(base, "/") + api.PathMetrics)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d", resp.StatusCode)
	}
	fams, err := obs.Parse(io.LimitReader(resp.Body, 8<<20))
	if err != nil {
		return nil, fmt.Errorf("parse: %w", err)
	}
	return fams, nil
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

func b2f(b bool) float64 {
	return float64(b2i(b))
}
