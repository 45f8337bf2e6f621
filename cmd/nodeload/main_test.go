package main

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/apitest"
	"repro/pkg/client"
)

func TestParseFlags(t *testing.T) {
	cfg, err := parseFlags([]string{
		"-addrs", "127.0.0.1:8141, http://h:2,", "-clients", "3",
		"-duration", "250ms", "-ratio", "0.8", "-shards", "2", "-format", "csv",
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.addrs) != 2 || cfg.clients != 3 || cfg.duration != 250*time.Millisecond ||
		cfg.ratio != 0.8 || cfg.shards != 2 || cfg.format != "csv" {
		t.Fatalf("parsed %+v", cfg)
	}
	bad := [][]string{
		{},                                   // neither -addrs nor -noded
		{"-addrs", "h:1", "-noded", "noded"}, // both modes at once
		{"-noded", "noded", "-nodes", "1"},   // no survivors
		{"-addrs", "h:1", "-clients", "0"},   // no workers
		{"-addrs", "h:1", "-clients", "5"},   // a worker without a key (4 keys)
		{"-addrs", "h:1", "-clients", "9", "-shards", "2"}, // 8 keys
		{"-addrs", "h:1", "-ratio", "1.5"},                 // ratio out of range
		{"-addrs", "h:1", "-ratio", "-0.1"},                // ratio out of range
		{"-addrs", "h:1", "-duration", "0s"},               // no duration
		{"-addrs", "h:1", "-shards", "0"},                  // bad shard count
		{"-addrs", "h:1", "-keys", "0"},                    // no keys
		{"-addrs", "h:1", "-format", "xml"},                // unknown format
	}
	for _, args := range [][]string{{"-addrs", "h:1"}, {"-noded", "noded"}} {
		if _, err := parseFlags(args); err != nil {
			t.Errorf("parseFlags(%v) with default workload flags: %v", args, err)
		}
	}
	for _, args := range bad {
		if _, err := parseFlags(args); err == nil {
			t.Errorf("parseFlags(%v) accepted", args)
		}
	}
}

func TestPercentile(t *testing.T) {
	sorted := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	cases := []struct {
		p, want float64
	}{
		{50, 5}, {95, 10}, {99, 10}, {100, 10}, {10, 1},
	}
	for _, c := range cases {
		if got := percentile(sorted, c.p); got != c.want {
			t.Errorf("p%g = %g, want %g", c.p, got, c.want)
		}
	}
	if percentile(nil, 50) != 0 {
		t.Error("empty sample must report 0")
	}
	if got := percentile([]float64{7}, 99); got != 7 {
		t.Errorf("singleton p99 = %g", got)
	}
}

// TestDriveChecksAckedWrites: the one workload loop spreads a
// write/sync-read mix across every shard and both endpoints of a fake
// cluster (internal/apitest), and the survival check catches an
// acknowledged write that vanished behind the client's back: deleting
// one acked key from the shared store must read as exactly one lost
// write, carried by the report's survival.* rows.
func TestDriveChecksAckedWrites(t *testing.T) {
	const shards = 2
	nodes := apitest.Cluster(2, shards)
	var addrs []string
	for _, n := range nodes {
		srv := httptest.NewServer(n.Handler())
		defer srv.Close()
		addrs = append(addrs, srv.URL)
	}
	cfg, err := parseFlags([]string{
		"-addrs", strings.Join(addrs, ","), "-clients", "4",
		"-duration", "300ms", "-ratio", "0.5", "-shards", "2", "-seed", "7",
	})
	if err != nil {
		t.Fatal(err)
	}
	c, err := client.New(cfg.addrs, client.WithShards(cfg.shards), client.WithTimeout(cfg.timeout))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	res := drive(ctx, c, cfg)
	if res.write.ops == 0 || res.sread.ops == 0 {
		t.Fatalf("mixed workload ran no ops: %+v / %+v (last err %v)", res.write, res.sread, res.lastErr)
	}
	if res.write.errs != 0 || res.sread.errs != 0 {
		t.Fatalf("errors against healthy fakes: %+v / %+v (last err %v)", res.write, res.sread, res.lastErr)
	}
	for _, n := range nodes {
		if n.Hits.Load() == 0 {
			t.Fatal("an endpoint saw no traffic: shard routing never spread the load")
		}
	}
	if len(res.acked) == 0 {
		t.Fatal("no write was acknowledged")
	}
	if lost, detail := verifySurvival(ctx, c, res.acked); lost != 0 {
		t.Fatalf("healthy fake lost %d acked write(s): %s", lost, detail)
	}

	var victim string
	for k := range res.acked {
		victim = k
		break
	}
	nodes[0].Store.Delete(victim)
	res.lost, res.lostNote = verifySurvival(ctx, c, res.acked)
	if res.lost != 1 || !strings.Contains(res.lostNote, victim) {
		t.Fatalf("deleted %s: lost = %d (%s), want exactly that key", victim, res.lost, res.lostNote)
	}

	rep := buildReport(cfg, res, nil, nil)
	series := map[string]float64{}
	valid := map[string]bool{}
	for _, s := range rep.Summary {
		series[s.Series] = s.Mean
		valid[s.Series] = s.Valid == s.Repeats
	}
	for _, key := range []string{
		"write.throughput_ops_s", "write.p50_ms", "write.p95_ms", "write.p99_ms",
		"sync-read.throughput_ops_s", "sync-read.p50_ms", "sync-read.p95_ms", "sync-read.p99_ms",
		"total.throughput_ops_s",
	} {
		v, ok := series[key]
		if !ok {
			t.Fatalf("report lacks series %q", key)
		}
		if v <= 0 || !valid[key] {
			t.Errorf("series %q = %g (valid=%v), want positive and valid", key, v, valid[key])
		}
	}
	if series["write.errors"] != 0 || series["sync-read.errors"] != 0 {
		t.Errorf("error series nonzero: %g / %g", series["write.errors"], series["sync-read.errors"])
	}
	for _, cls := range []string{"write", "sync-read"} {
		if p50, p95, p99 := series[cls+".p50_ms"], series[cls+".p95_ms"], series[cls+".p99_ms"]; p50 > p95 || p95 > p99 {
			t.Errorf("%s percentiles unordered: %g / %g / %g", cls, p50, p95, p99)
		}
	}
	if got := series["survival.acked_keys"]; got != float64(len(res.acked)) || !valid["survival.acked_keys"] {
		t.Errorf("survival.acked_keys = %g (valid=%v), want %d", got, valid["survival.acked_keys"], len(res.acked))
	}
	if got, ok := series["survival.lost_acked_writes"]; !ok || got != 1 || valid["survival.lost_acked_writes"] {
		t.Errorf("survival.lost_acked_writes = %g (present=%v, valid=%v), want 1 and invalid",
			got, ok, valid["survival.lost_acked_writes"])
	}
}

// TestScrapeClusterFoldIn: scrapeCluster sums counter families across
// endpoints, tolerates an endpoint without /metrics, and buildReport
// folds the totals in as server.* series.
func TestScrapeClusterFoldIn(t *testing.T) {
	page := "# HELP repro_shard_ops_total Operations routed per shard.\n" +
		"# TYPE repro_shard_ops_total counter\n" +
		"repro_shard_ops_total{op=\"write\",shard=\"0\"} 3\n" +
		"repro_shard_ops_total{op=\"read\",shard=\"1\"} 2\n" +
		"# HELP repro_http_requests_total HTTP requests served.\n" +
		"# TYPE repro_http_requests_total counter\n" +
		"repro_http_requests_total{code=\"200\",route=\"registers\"} 7\n"
	good := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/metrics" {
			http.NotFound(w, r)
			return
		}
		io.WriteString(w, page)
	}))
	defer good.Close()
	dead := httptest.NewServer(http.NotFoundHandler())
	defer dead.Close()

	cfg := config{
		addrs:   []string{good.URL, good.URL, dead.URL},
		clients: 1, seed: 1, timeout: 2 * time.Second,
	}
	srv := scrapeCluster(cfg)
	if srv.scraped != 2 {
		t.Fatalf("scraped = %d, want 2 (dead endpoint skipped)", srv.scraped)
	}
	if got := srv.totals["repro_shard_ops_total"]; got != 10 {
		t.Errorf("shard ops total = %g, want 10 (5 per good endpoint)", got)
	}
	if got := srv.totals["repro_http_requests_total"]; got != 14 {
		t.Errorf("http requests total = %g, want 14", got)
	}

	rep := buildReport(cfg, result{elapsed: time.Second, write: classStats{ops: 1, latMS: []float64{1}}}, srv, nil)
	series := map[string]float64{}
	for _, s := range rep.Summary {
		series[s.Series] = s.Mean
	}
	if series["server.shard_ops"] != 10 || series["server.http_requests"] != 14 {
		t.Errorf("server series not folded in: %v / %v",
			series["server.shard_ops"], series["server.http_requests"])
	}
	if _, ok := series["server.storage_appends"]; !ok {
		t.Error("absent family should still emit a zero-valued server row")
	}
}

// TestBuildReportEmptyRun: a run that completed nothing marks its
// percentile and throughput rows invalid instead of fabricating zeros
// as valid measurements.
func TestBuildReportEmptyRun(t *testing.T) {
	cfg := config{clients: 2, seed: 1, ratio: 1, shards: 1, addrs: []string{"x"}}
	rep := buildReport(cfg, result{elapsed: time.Second, write: classStats{errs: 5}}, nil, nil)
	for _, s := range rep.Summary {
		switch {
		case strings.HasSuffix(s.Series, ".errors"):
			if s.Valid != 1 {
				t.Errorf("%s should stay valid", s.Series)
			}
		case strings.HasPrefix(s.Series, "write.") || strings.HasPrefix(s.Series, "total."):
			if s.Valid != 0 {
				t.Errorf("%s valid=%d, want 0 on an empty run", s.Series, s.Valid)
			}
		}
	}
}
