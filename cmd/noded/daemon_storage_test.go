package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/ids"
	"repro/internal/regmem"
	"repro/internal/shard"
	"repro/internal/storage"
	"repro/internal/transport"
	"repro/internal/transport/inproc"
	"repro/pkg/api"
	"repro/pkg/client"
)

// storedDaemon boots a single-node daemon with the given storage
// config and returns it with a test server and client.
func storedDaemon(t *testing.T, seed int64, shards int, cfg DaemonConfig) (*Daemon, *client.Client) {
	t.Helper()
	tr := inproc.New(seed, transport.Options{Capacity: 64, TickEvery: time.Millisecond})
	t.Cleanup(func() { tr.Close() })
	one := ids.NewSet(1)
	cfg.Peers, cfg.Members, cfg.Shards = one, one, shards
	cfg.Batch, cfg.MaxN, cfg.OpTimeout = 1, 8, 10*time.Second
	d, err := NewDaemon(tr, 1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(d.Handler())
	t.Cleanup(srv.Close)
	c, err := client.New([]string{srv.URL}, client.WithShards(shards))
	if err != nil {
		t.Fatal(err)
	}
	return d, c
}

// tempDiskBackends returns a Backends hook that opens each shard's disk
// backend under one fresh temporary directory. Call it before the
// daemon's transport is built, so the directory outlives the node's last
// step (cleanups run last-registered first).
func tempDiskBackends(t *testing.T) func(int) (storage.Backend, error) {
	root := t.TempDir()
	return func(sh int) (storage.Backend, error) {
		return storage.OpenDisk(filepath.Join(root, fmt.Sprint(sh)), storage.DiskOptions{Fsync: storage.FsyncSnapshot})
	}
}

// TestStorageRoutesWithoutBackend: a diskless daemon still answers the
// node-level document (Attached=false) but refuses per-shard stats and
// snapshot triggers with storage_unavailable.
func TestStorageRoutesWithoutBackend(t *testing.T) {
	_, srv := soloDaemon(t, 2, time.Second)

	resp, data := doReq(t, http.MethodGet, srv.URL+api.PathStorage, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/storage: %d (%s)", resp.StatusCode, data)
	}
	var st api.StorageStatus
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatal(err)
	}
	if st.Attached || len(st.Shards) != 0 || st.ID != 1 {
		t.Fatalf("diskless storage doc %+v", st)
	}

	resp, data = doReq(t, http.MethodGet, srv.URL+api.StoragePath(0), "")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("GET /v1/storage/0: %d (%s), want 503", resp.StatusCode, data)
	}
	if e := api.DecodeError(resp.StatusCode, data); e.Code != api.CodeStorageUnavailable || e.Shard == nil || *e.Shard != 0 {
		t.Fatalf("per-shard envelope %+v", e)
	}

	resp, data = doReq(t, http.MethodPost, srv.URL+api.PathStorageSnapshot, "")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("POST snapshot: %d (%s), want 503", resp.StatusCode, data)
	}
	if e := api.DecodeError(resp.StatusCode, data); e.Code != api.CodeStorageUnavailable {
		t.Fatalf("snapshot envelope %+v", e)
	}

	// Out-of-range shard stays a 400 even without a backend.
	resp, data = doReq(t, http.MethodGet, srv.URL+api.StoragePath(9), "")
	if e := api.DecodeError(resp.StatusCode, data); resp.StatusCode != 400 || e.Code != api.CodeBadShard {
		t.Fatalf("bad shard: %d %+v", resp.StatusCode, e)
	}
}

// TestStorageRoutesLiveStats: a daemon with per-shard disk backends
// reports live WAL counters through GET /v1/storage after real writes,
// and POST /v1/storage/snapshot compacts on demand — the whole journey
// through pkg/client.
func TestStorageRoutesLiveStats(t *testing.T) {
	const shards = 2
	_, c := storedDaemon(t, 41, shards, DaemonConfig{
		Backends: tempDiskBackends(t),
	})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := c.WaitServing(ctx, 0); err != nil {
		t.Fatalf("never served: %v", err)
	}

	// One write per shard; each must land in its own shard's WAL.
	for _, group := range shard.NamesPerShard(shards, 1) {
		if _, err := c.Write(ctx, group[0], "v"); err != nil {
			t.Fatalf("write %s: %v", group[0], err)
		}
	}

	st, err := c.StorageStatus(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Attached || st.Kind != "disk" || len(st.Shards) != shards {
		t.Fatalf("storage doc %+v", st)
	}
	for _, sh := range st.Shards {
		if sh.Appended == 0 {
			t.Fatalf("shard %d WAL empty after a delivered write: %+v", sh.Shard, sh)
		}
	}

	// Per-shard route agrees with the node-level document.
	one, err := c.ShardStorage(ctx, 1)
	if err != nil || one.Shard != 1 || one.Kind != "disk" {
		t.Fatalf("shard storage: %+v, %v", one, err)
	}

	// Forced compaction truncates the logs and bumps the counters.
	snap, err := c.ForceSnapshot(ctx, -1)
	if err != nil {
		t.Fatalf("force snapshot: %v", err)
	}
	if len(snap.Snapshotted) != shards {
		t.Fatalf("snapshotted %v", snap.Snapshotted)
	}
	for _, sh := range snap.Shards {
		if sh.Snapshots == 0 || sh.WALRecords != 0 {
			t.Fatalf("post-snapshot counters %+v", sh)
		}
	}

	// Single-shard trigger, then an out-of-range one.
	if snap, err = c.ForceSnapshot(ctx, 1); err != nil || len(snap.Snapshotted) != 1 || snap.Snapshotted[0] != 1 {
		t.Fatalf("single-shard snapshot %+v, %v", snap, err)
	}
	if _, err = c.ForceSnapshot(ctx, 7); err == nil {
		t.Fatal("out-of-range snapshot accepted")
	}
}

// TestDiskDaemonRecoversAcrossRestart: a -data-dir daemon's registers
// survive a full stop/start cycle via local snapshot+WAL replay — the
// in-process version of the E2E kill test, covering the NewDaemon
// recovery wiring on both the write and the reboot side. The first
// stack is fully shut down before the second opens the directory: one
// Backend owns a shard directory at a time.
func TestDiskDaemonRecoversAcrossRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("live cluster test")
	}
	dir := t.TempDir()
	const shards = 2
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	one := ids.NewSet(1)
	boot := func(seed int64) (*inproc.Net, *client.Client) {
		tr := inproc.New(seed, transport.Options{Capacity: 64, TickEvery: time.Millisecond})
		d, err := NewDaemon(tr, 1, DaemonConfig{
			Peers: one, Members: one, Shards: shards, Batch: 1, MaxN: 8,
			OpTimeout: 10 * time.Second,
			DataDir:   dir, Fsync: storage.FsyncAlways, SnapEvery: 4,
		})
		if err != nil {
			tr.Close()
			t.Fatal(err)
		}
		srv := httptest.NewServer(d.Handler())
		t.Cleanup(srv.Close)
		c, err := client.New([]string{srv.URL}, client.WithShards(shards))
		if err != nil {
			tr.Close()
			t.Fatal(err)
		}
		return tr, c
	}

	tr1, c := boot(43)
	if _, err := c.WaitServing(ctx, 0); err != nil {
		t.Fatalf("first boot never served: %v", err)
	}
	want := map[string]string{}
	for sh, group := range shard.NamesPerShard(shards, 3) {
		for j, name := range group {
			v := fmt.Sprintf("gen-%d-%d", sh, j)
			if _, err := c.Write(ctx, name, v); err != nil {
				t.Fatalf("write %s: %v", name, err)
			}
			want[name] = v
		}
	}
	st, err := c.StorageStatus(ctx)
	if err != nil || !st.Attached || st.Kind != "disk" {
		t.Fatalf("disk storage doc %+v, %v", st, err)
	}
	// Full stop: closing the transport halts ticking and the storage
	// file handles stop being written (fsync-always means everything
	// acked is already durable anyway).
	tr1.Close()

	// The data directory really holds per-shard stores.
	for i := 0; i < shards; i++ {
		if _, err := os.Stat(filepath.Join(dir, fmt.Sprintf("shard-%d", i), "wal.log")); err != nil {
			t.Fatalf("shard %d WAL missing: %v", i, err)
		}
	}

	tr2, c2 := boot(44)
	defer tr2.Close()
	if _, err := c2.WaitServing(ctx, 0); err != nil {
		t.Fatalf("rebooted daemon never served: %v", err)
	}
	for name, v := range want {
		got, err := c2.Read(ctx, name)
		if err != nil {
			t.Fatalf("post-restart read %s: %v", name, err)
		}
		if !got.Found || got.Value != v {
			t.Fatalf("register %s lost across restart: %+v, want %q", name, got, v)
		}
	}
	// Recovery happened from local files, and the document says so.
	st2, err := c2.StorageStatus(ctx)
	if err != nil {
		t.Fatal(err)
	}
	recovered := false
	for _, sh := range st2.Shards {
		if sh.Recovered {
			recovered = true
		}
	}
	if !recovered {
		t.Fatalf("no shard reports recovery after reboot: %+v", st2.Shards)
	}
}

// closeWatch wraps a shard backend: it counts Close calls and refuses,
// failing the test, any Append after the first.
type closeWatch struct {
	storage.Backend
	t      *testing.T
	closes atomic.Int32
}

func (w *closeWatch) Append(rec []byte) error {
	if w.closes.Load() > 0 {
		w.t.Error("an Append reached a closed backend")
		return errors.New("closed")
	}
	return w.Backend.Append(rec)
}

func (w *closeWatch) Close() error {
	w.closes.Add(1)
	return w.Backend.Close()
}

// TestCloseStopsTheNodeThenClosesEveryBackendOnce: Daemon.Close, called
// while writes keep arriving, stops the node before it closes the shard
// backends — no Append reaches a closed one — closes each exactly once,
// however often it is called, and leaves on disk every write that
// completed.
func TestCloseStopsTheNodeThenClosesEveryBackendOnce(t *testing.T) {
	const shards = 2
	open := tempDiskBackends(t)
	var watches []*closeWatch
	d, _ := storedDaemon(t, 61, shards, DaemonConfig{Backends: func(sh int) (storage.Backend, error) {
		be, err := open(sh)
		if err != nil {
			return nil, err
		}
		w := &closeWatch{Backend: be, t: t}
		watches = append(watches, w)
		return w, nil
	}})

	write := func(i int) (h *regmem.Handle, ok bool) {
		ok = d.tr.Inspect(d.self, func() { h, _ = d.Mem().Write(fmt.Sprintf("r%d", i), "v") })
		return h, ok
	}
	for i := 0; i < 8; i++ {
		h, _ := write(i)
		select {
		case <-h.Wait():
		case <-time.After(10 * time.Second):
			t.Fatalf("write %d never completed", i)
		}
	}
	looped := make(chan int)
	go func() {
		i := 8
		for _, ok := write(i); ok; _, ok = write(i) {
			i++
		}
		looped <- i
	}()
	time.Sleep(20 * time.Millisecond) // writes are in flight
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	t.Logf("%d writes submitted before the node stopped", <-looped)
	for sh, w := range watches {
		if n := w.closes.Load(); n != 1 {
			t.Errorf("shard %d's backend was closed %d times, want once", sh, n)
		}
	}

	recovered := 0
	for sh := 0; sh < shards; sh++ {
		be, err := open(sh)
		if err != nil {
			t.Fatal(err)
		}
		_, tail, err := be.Recover()
		if err != nil {
			t.Fatal(err)
		}
		recovered += len(tail)
		be.Close()
	}
	if recovered < 8 {
		t.Errorf("%d WAL records on disk after Close, want at least the 8 completed writes", recovered)
	}
}
