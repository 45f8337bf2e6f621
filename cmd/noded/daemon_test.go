package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/ids"
	"repro/internal/shard"
	"repro/internal/smr"
	"repro/internal/transport"
	"repro/internal/transport/inproc"
	"repro/pkg/api"
	"repro/pkg/client"
)

// soloDaemon boots a single-node daemon (a 1-member cluster serves by
// itself) with the given shard count and returns a test server over its
// handler.
func soloDaemon(t *testing.T, shards int, opTimeout time.Duration) (*Daemon, *httptest.Server) {
	t.Helper()
	tr := inproc.New(31, transport.Options{Capacity: 64, TickEvery: time.Millisecond})
	t.Cleanup(func() { tr.Close() })
	one := ids.NewSet(1)
	d, err := NewDaemon(tr, 1, DaemonConfig{
		Peers: one, Members: one, Shards: shards, Batch: 1, MaxN: 8,
		OpTimeout: opTimeout,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(d.Handler())
	t.Cleanup(srv.Close)
	return d, srv
}

// soloClient builds a pkg/client over one test server.
func soloClient(t *testing.T, srv *httptest.Server, shards int) *client.Client {
	t.Helper()
	c, err := client.New([]string{srv.URL}, client.WithShards(shards))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func doReq(t *testing.T, method, url string, body string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// TestErrorEnvelopeContract: every error path of the API answers the
// uniform {code, error, shard?} envelope under Content-Type
// application/json — including the mux fallbacks (unknown route, wrong
// method), which the stdlib would otherwise serve as plain text.
func TestErrorEnvelopeContract(t *testing.T) {
	_, srv := soloDaemon(t, 2, time.Second)
	cases := []struct {
		name, method, path, body string
		wantStatus               int
		wantCode                 string
		wantShard                *int
	}{
		{"bad shard path", http.MethodGet, "/v1/shards/7", "", 400, api.CodeBadShard, nil},
		{"negative shard", http.MethodGet, "/v1/shards/-1", "", 400, api.CodeBadShard, nil},
		{"non-numeric shard", http.MethodGet, "/v1/smr/log?shard=banana", "", 400, api.CodeBadShard, nil},
		{"propose bad shard", http.MethodPost, "/v1/smr/propose?shard=9", `{"key":"k"}`, 400, api.CodeBadShard, nil},
		{"empty register", http.MethodPut, "/v1/reg/", "v", 400, api.CodeEmptyRegister, nil},
		{"whitespace register", http.MethodGet, "/v1/reg/%20%09", "", 400, api.CodeEmptyRegister, nil},
		{"propose bad json", http.MethodPost, "/v1/smr/propose?shard=1", "not json", 400, api.CodeBadRequest, ptr(1)},
		{"unknown route", http.MethodGet, "/v1/nope", "", 404, api.CodeNotFound, nil},
		{"method not allowed", http.MethodDelete, "/v1/status", "", 405, api.CodeMethodNotAllowed, nil},
		{"propose wrong method", http.MethodGet, "/v1/smr/propose", "", 405, api.CodeMethodNotAllowed, nil},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			resp, data := doReq(t, c.method, srv.URL+c.path, c.body)
			if resp.StatusCode != c.wantStatus {
				t.Fatalf("status %d (%s), want %d", resp.StatusCode, data, c.wantStatus)
			}
			if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
				t.Fatalf("Content-Type %q, want application/json", ct)
			}
			e := api.DecodeError(resp.StatusCode, data)
			if e.Code != c.wantCode {
				t.Fatalf("code %q (%s), want %q", e.Code, data, c.wantCode)
			}
			if e.Message == "" {
				t.Fatalf("empty error message in %s", data)
			}
			if c.wantShard != nil && (e.Shard == nil || *e.Shard != *c.wantShard) {
				t.Fatalf("shard %v, want %d", e.Shard, *c.wantShard)
			}
		})
	}
}

func ptr(i int) *int { return &i }

// TestEveryResponseIsJSON: 200s carry the contract Content-Type too.
func TestEveryResponseIsJSON(t *testing.T) {
	_, srv := soloDaemon(t, 1, time.Second)
	for _, path := range []string{"/v1/healthz", "/v1/status", "/v1/shards", "/v1/shards/0", "/v1/reg/x", "/v1/smr/log"} {
		resp, data := doReq(t, http.MethodGet, srv.URL+path, "")
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s: status %d (%s)", path, resp.StatusCode, data)
			continue
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("GET %s: Content-Type %q", path, ct)
		}
	}
}

// TestHealthzIsCheapLiveness: healthz answers without entering the
// node's execution context and reports the node id.
func TestHealthzIsCheapLiveness(t *testing.T) {
	_, srv := soloDaemon(t, 1, time.Second)
	resp, data := doReq(t, http.MethodGet, srv.URL+"/v1/healthz", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d (%s)", resp.StatusCode, data)
	}
	var h api.Health
	if err := json.Unmarshal(data, &h); err != nil {
		t.Fatal(err)
	}
	if !h.OK || h.ID != 1 {
		t.Fatalf("healthz %+v", h)
	}
}

// TestWriteTimesOutWithoutQuorum: a node whose initial configuration
// includes an unreachable majority cannot complete writes; the handler
// reports a timeout envelope after the operation deadline instead of
// hanging, naming the shard the operation was routed to.
func TestWriteTimesOutWithoutQuorum(t *testing.T) {
	tr := inproc.New(32, transport.Options{Capacity: 64, TickEvery: time.Millisecond})
	defer tr.Close()
	// Universe {1,2}, only node 1 alive: the {1,2} configuration never
	// assembles a trusted majority, so no view forms and writes stall.
	both := ids.NewSet(1, 2)
	d, err := NewDaemon(tr, 1, DaemonConfig{
		Peers: both, Members: both, Shards: 1, Batch: 1, MaxN: 8,
		OpTimeout: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()
	resp, data := doReq(t, http.MethodPut, srv.URL+"/v1/reg/stuck", "value")
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("write without quorum: status %d (%s), want 504", resp.StatusCode, data)
	}
	e := api.DecodeError(resp.StatusCode, data)
	if e.Code != api.CodeTimeout || e.Shard == nil || *e.Shard != 0 {
		t.Fatalf("write timeout envelope %+v (%s)", e, data)
	}
	resp, data = doReq(t, http.MethodGet, srv.URL+"/v1/reg/stuck?sync=1", "")
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("sync read without quorum: status %d (%s), want 504", resp.StatusCode, data)
	}
	if e := api.DecodeError(resp.StatusCode, data); e.Code != api.CodeTimeout {
		t.Fatalf("sync-read timeout envelope %+v", e)
	}
	// Liveness keeps answering while operations stall.
	resp, _ = doReq(t, http.MethodGet, srv.URL+"/v1/healthz", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz during stall: %d", resp.StatusCode)
	}
	// A write the submission queue refuses is tracked by nothing and can
	// never complete: it, too, is answered by the deadline.
	if !tr.Inspect(1, func() {
		for i := 0; i < 64; i++ {
			d.Mem().Write(fmt.Sprintf("filler-%d", i), "v")
		}
	}) {
		t.Fatal("Inspect failed")
	}
	resp, data = doReq(t, http.MethodPut, srv.URL+"/v1/reg/refused", "value")
	if e := api.DecodeError(resp.StatusCode, data); resp.StatusCode != http.StatusGatewayTimeout || e.Code != api.CodeTimeout {
		t.Fatalf("refused write: status %d, envelope %+v, want the timeout", resp.StatusCode, e)
	}
}

// TestWaitEndsWhenNodeStops: a handler waiting on an operation returns as
// soon as the node takes no further steps — with the unavailable envelope,
// long before the operation deadline.
func TestWaitEndsWhenNodeStops(t *testing.T) {
	tr := inproc.New(33, transport.Options{Capacity: 64, TickEvery: time.Millisecond})
	defer tr.Close()
	both := ids.NewSet(1, 2) // node 2 never starts: no view, the write stalls
	d, err := NewDaemon(tr, 1, DaemonConfig{
		Peers: both, Members: both, Shards: 1, Batch: 1, MaxN: 8,
		OpTimeout: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()
	type answer struct {
		status int
		body   []byte
	}
	answered := make(chan answer, 1)
	go func() {
		defer close(answered)
		req, err := http.NewRequest(http.MethodPut, srv.URL+"/v1/reg/stuck", strings.NewReader("value"))
		if err != nil {
			t.Error(err)
			return
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Error(err)
			return
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Error(err)
			return
		}
		answered <- answer{resp.StatusCode, data}
	}()
	// Wait until the write is queued inside the node, then stop the node.
	for queued := 0; queued == 0; {
		if !tr.Inspect(1, func() {
			mem, _ := d.Mem().Mem(0)
			queued = mem.SMR().PendingLen()
		}) {
			t.Fatal("Inspect failed")
		}
		time.Sleep(time.Millisecond)
	}
	tr.Close()
	select {
	case a, ok := <-answered:
		if !ok {
			t.Fatal("the request failed")
		}
		if e := api.DecodeError(a.status, a.body); a.status != http.StatusServiceUnavailable || e.Code != api.CodeUnavailable {
			t.Fatalf("write cut short by shutdown: status %d, envelope %+v, want unavailable", a.status, e)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the handler kept waiting after its node stopped")
	}
}

// TestShardedDaemonServesAcrossShards: a solo daemon with 4 shards
// reaches serving on every shard, routes writes by the shared hash
// router, and reports consistent per-shard status — all through the
// public pkg/client.
func TestShardedDaemonServesAcrossShards(t *testing.T) {
	const shards = 4
	_, srv := soloDaemon(t, shards, 10*time.Second)
	c := soloClient(t, srv, shards)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := c.WaitServing(ctx, 0); err != nil {
		t.Fatalf("sharded solo daemon never served: %v", err)
	}

	st, err := c.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Shards) != shards {
		t.Fatalf("status reports %d shards, want %d", len(st.Shards), shards)
	}
	for _, sh := range st.Shards {
		if !sh.Serving || !sh.HasView {
			t.Fatalf("shard %d not serving after wait: %+v", sh.Shard, sh)
		}
	}

	// Writes land on the shard the router names — pkg/client verifies
	// the echoed shard against the same router — and reads agree.
	written := map[int]string{}
	for want, group := range shard.NamesPerShard(shards, 1) {
		name := group[0]
		resp, err := c.Write(ctx, name, fmt.Sprintf("val%d", want))
		if err != nil {
			t.Fatalf("put %s: %v", name, err)
		}
		if resp.Shard != want {
			t.Fatalf("put %s: handler reports shard %d, router says %d", name, resp.Shard, want)
		}
		written[want] = name
	}
	for sh, name := range written {
		got, err := c.SyncRead(ctx, name)
		if err != nil {
			t.Fatalf("sync-get %s: %v", name, err)
		}
		if !got.Found || got.Value != fmt.Sprintf("val%d", sh) || got.Shard != sh {
			t.Fatalf("sync-get %s = %+v, want val%d on shard %d", name, got, sh, sh)
		}
	}

	// Per-shard status shows the writes distributed: every shard holds
	// exactly one register.
	perShard, err := c.ShardStatuses(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, sh := range perShard {
		if sh.Registers != 1 {
			t.Errorf("shard %d holds %d registers, want 1", sh.Shard, sh.Registers)
		}
	}
	one, err := c.ShardStatus(ctx, 2)
	if err != nil {
		t.Fatal(err)
	}
	if one.Shard != 2 {
		t.Errorf("GET /v1/shards/2 returned shard %d", one.Shard)
	}

	// Awkward register names survive the URL round trip — including
	// the dot segments HTTP path cleaning would otherwise swallow.
	for _, name := range []string{".", "..", "a/b", "sp ace"} {
		if _, err := c.Write(ctx, name, "odd"); err != nil {
			t.Fatalf("write %q: %v", name, err)
		}
		got, err := c.SyncRead(ctx, name)
		if err != nil || !got.Found || got.Value != "odd" || got.Name != name {
			t.Fatalf("round trip of %q = %+v, %v", name, got, err)
		}
	}
}

// TestProposeStepsWhenItsSliceEnds: a raw command proposed at a follower is
// fetched into its round input by the step that ends the handler's slice,
// as a register write is — it used to sit in the queue until the node's
// next tick — and is then applied by a round.
func TestProposeStepsWhenItsSliceEnds(t *testing.T) {
	tr := inproc.New(41, transport.Options{Capacity: 64, TickEvery: 20 * time.Millisecond})
	t.Cleanup(func() { tr.Close() })
	all := ids.Range(1, 3)
	daemons := map[ids.ID]*Daemon{}
	clients := map[ids.ID]*client.Client{}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	for _, i := range all.Members() {
		d, err := NewDaemon(tr, i, DaemonConfig{Peers: all, Members: all, Shards: 1, Batch: 1, MaxN: 8})
		if err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(d.Handler())
		t.Cleanup(srv.Close)
		daemons[i], clients[i] = d, soloClient(t, srv, 1)
	}
	// Every node in the view of all three, and the install's own rounds over.
	var coord ids.ID
	for deadline := time.Now().Add(60 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		full := 0
		for _, i := range all.Members() {
			tr.Inspect(i, func() {
				mem, _ := daemons[i].Mem().Mem(0)
				if v, ok := mem.VS().CurrentView(); ok && v.Set.Equal(all) {
					full++
					coord = v.Coordinator()
				}
			})
		}
		if full == all.Size() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no view of all three nodes")
		}
	}
	time.Sleep(200 * time.Millisecond)
	follower := all.Remove(coord).Members()[0]
	d := daemons[follower]
	mem, _ := d.Mem().Mem(0)
	// A tick between the proposal and the look at the queue proves nothing
	// either way; with the tick twenty times a round trip that is rare.
	for attempt := 0; ; attempt++ {
		if attempt == 20 {
			t.Fatal("a tick fell into every one of twenty proposals")
		}
		key := fmt.Sprintf("audit-%d", attempt)
		ticks := d.Node().Ticks()
		if resp, err := clients[follower].Propose(ctx, 0, key, "1"); err != nil || !resp.Accepted {
			t.Fatalf("propose: %+v, %v", resp, err)
		}
		queued := -1
		if !tr.Inspect(follower, func() {
			if d.Node().Ticks() == ticks {
				queued = mem.SMR().PendingLen()
			}
		}) {
			t.Fatal("Inspect failed")
		}
		if queued > 0 {
			t.Fatalf("%d proposed command still queued with no tick since the proposal: it is waiting for the timer", queued)
		}
		// Applied before the next proposal, or that one queues behind it.
		want := smr.KVCmd{Op: smr.KVPut, Key: key, Value: "1"}.String()
		for applied := false; !applied; time.Sleep(time.Millisecond) {
			log, err := clients[follower].Log(ctx, 0, 4)
			if err != nil {
				t.Fatalf("the proposed command was never applied: %v", err)
			}
			for _, e := range log {
				applied = applied || (e.Cmd == want && e.Member == int(follower))
			}
		}
		if queued == 0 {
			return
		}
	}
}
