package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/ids"
	"repro/internal/obs"
	"repro/internal/transport"
	"repro/internal/transport/inproc"
	"repro/pkg/api"
	"repro/pkg/client"
)

// soloDaemonStored boots a single-node daemon with per-shard disk
// backends (so the storage metric families have live values) and
// returns a test server over its handler.
func soloDaemonStored(t *testing.T, shards int, opTimeout time.Duration) (*Daemon, *httptest.Server) {
	t.Helper()
	backends := tempDiskBackends(t)
	tr := inproc.New(47, transport.Options{Capacity: 64, TickEvery: time.Millisecond})
	t.Cleanup(func() { tr.Close() })
	one := ids.NewSet(1)
	d, err := NewDaemon(tr, 1, DaemonConfig{
		Peers: one, Members: one, Shards: shards, Batch: 1, MaxN: 8,
		OpTimeout: opTimeout,
		Backends:  backends,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(d.Handler())
	t.Cleanup(srv.Close)
	return d, srv
}

// waitServing blocks until every shard of the node serves.
func waitServing(t *testing.T, srv *httptest.Server) {
	t.Helper()
	c, err := client.New([]string{srv.URL})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := c.WaitServing(ctx, 0); err != nil {
		t.Fatalf("never served: %v", err)
	}
}

// TestMetricsEndpoint boots a solo daemon with disk storage,
// applies load through the API, and checks GET /metrics serves
// strict-parser-clean Prometheus text covering the subsystem families
// with live values.
func TestMetricsEndpoint(t *testing.T) {
	d, srv := soloDaemonStored(t, 2, 10*time.Second)
	waitServing(t, srv)

	// Put traffic through every instrumented path: writes (shard router
	// + storage WAL), a read, a sync read, a bad route (404 counter).
	for i := 0; i < 4; i++ {
		resp, body := doReq(t, "PUT", srv.URL+api.RegPath(fmt.Sprintf("k%d", i)), "v")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("put: %d %s", resp.StatusCode, body)
		}
	}
	doReq(t, "GET", srv.URL+api.RegPath("k0"), "")
	doReq(t, "GET", srv.URL+api.RegPath("k0")+"?sync=1", "")
	doReq(t, "GET", srv.URL+"/no/such/route", "")

	resp, body := doReq(t, "GET", srv.URL+api.PathMetrics, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("Content-Type = %q, want text/plain", ct)
	}
	fams, err := obs.Parse(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("strict parse of /metrics: %v\n%s", err, body)
	}

	// Every subsystem family present with nonzero samples. (No tcp
	// family here — the test transport is inproc — and a solo node
	// exchanges no datalink tokens; the metrics smoke script covers
	// both against a live 3-node cluster.)
	nonzero := []string{
		"repro_node_ticks_total",
		"repro_node_tick_late_seconds",
		"repro_build_info",
		"repro_vs_rounds_applied_total",
		"repro_shard_ops_total",
		"repro_storage_appends_total",
		"repro_http_requests_total",
	}
	for _, name := range nonzero {
		f := fams[name]
		if f == nil {
			t.Errorf("family %s missing", name)
			continue
		}
		if obs.SumFamily(f) == 0 {
			t.Errorf("family %s has no nonzero samples", name)
		}
	}
	for _, name := range []string{
		"repro_fd_peer_down_total", "repro_vs_echo_rounds_total",
		"repro_datalink_cycles_total", "repro_datalink_queue_depth",
		"repro_smr_pending_commands", "repro_storage_wal_records",
	} {
		if fams[name] == nil {
			t.Errorf("family %s missing", name)
		}
	}

	// Build identity: exactly one series, value 1, stamped with the
	// running toolchain version.
	if f := fams["repro_build_info"]; f != nil {
		if len(f.Samples) != 1 {
			t.Errorf("repro_build_info has %d series, want 1", len(f.Samples))
		} else if got := f.Samples[0].Labels["go_version"]; got != runtime.Version() {
			t.Errorf("repro_build_info go_version = %q, want %q", got, runtime.Version())
		} else if f.Samples[0].Labels["vcs_rev"] == "" {
			t.Errorf("repro_build_info missing vcs_rev label")
		}
	}

	// The histogram family renders and the latency observations landed.
	if f := fams["repro_http_request_seconds"]; f == nil || obs.SumFamily(f) == 0 {
		t.Errorf("repro_http_request_seconds missing or empty")
	}
	// Per-shard labels: both shards' op counters exist.
	shards := map[string]bool{}
	for _, s := range fams["repro_shard_ops_total"].Samples {
		shards[s.Labels["shard"]] = true
	}
	if !shards["0"] || !shards["1"] {
		t.Errorf("shard ops not labeled per shard: %v", shards)
	}
	// The 404 surfaced under route="other" with code 404.
	found404 := false
	for _, s := range fams["repro_http_requests_total"].Samples {
		if s.Labels["route"] == "other" && s.Labels["code"] == "404" && s.Value > 0 {
			found404 = true
		}
	}
	if !found404 {
		t.Errorf("404 request not counted: %+v", fams["repro_http_requests_total"].Samples)
	}

	// Stats() views and /metrics expose the same instruments: the
	// datalink cycles counter must match the endpoint's own snapshot
	// (monotone between the two reads, nothing double-counted).
	before := d.Node().Endpoint.Stats().CyclesDone
	var cycles float64
	for _, s := range fams["repro_datalink_cycles_total"].Samples {
		cycles = s.Value
	}
	if cycles > float64(before) {
		t.Errorf("metrics cycles %v ahead of live Stats %d", cycles, before)
	}

	// pprof is off by default.
	resp, _ = doReq(t, "GET", srv.URL+api.PathPprof, "")
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("pprof served without -pprof: %d", resp.StatusCode)
	}
}

// TestMetricsScrapeRaces hammers /metrics concurrently with write load;
// run under -race this is the live-scrape safety check for the datalink
// and vs stats paths.
func TestMetricsScrapeRaces(t *testing.T) {
	_, srv := soloDaemonStored(t, 1, 10*time.Second)
	waitServing(t, srv)

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 20; i++ {
			resp, err := http.Get(srv.URL + api.PathMetrics)
			if err != nil {
				t.Errorf("scrape: %v", err)
				return
			}
			if _, err := io.Copy(io.Discard, resp.Body); err != nil {
				t.Errorf("scrape read: %v", err)
			}
			resp.Body.Close()
		}
	}()
	for i := 0; i < 10; i++ {
		doReq(t, "PUT", srv.URL+api.RegPath(fmt.Sprintf("r%d", i)), "v")
	}
	<-done
}

func TestRouteLabelBounded(t *testing.T) {
	cases := map[string]string{
		api.PathHealthz:              "healthz",
		api.PathStatus:               "status",
		api.PathMetrics:              "metrics",
		api.PathShards:               "shards",
		api.PathShards + "/1":        "shards",
		api.PathReg + "some%20name":  "registers",
		api.PathSMRPropose:           "smr_propose",
		api.PathSMRLog:               "smr_log",
		api.PathStorage:              "storage",
		api.PathStorage + "/0":       "storage",
		api.PathStorageSnapshot:      "storage_snapshot",
		api.PathPprof:                "pprof",
		api.PathPprof + "profile":    "pprof",
		"/anything/else":             "other",
		"/v1/storagex":               "other",
		api.PathShards + "extra/odd": "other",
	}
	for path, want := range cases {
		if got := routeLabel(path); got != want {
			t.Errorf("routeLabel(%q) = %q, want %q", path, got, want)
		}
	}
}
