package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/datalink"
	"repro/internal/ids"
	"repro/internal/obs"
	"repro/internal/recsa"
	"repro/internal/regmem"
	"repro/internal/shard"
	"repro/internal/smr"
	"repro/internal/storage"
	"repro/internal/transport"
	"repro/pkg/api"
)

// Daemon is one live processor: the full reconfiguration stack with the
// MWMR shared-memory service — one vs/smr/regmem stack per shard,
// register names routed by the deterministic hash router — plus the
// HTTP client API speaking the repro/pkg/api contract. It is
// transport-generic — production runs it on tcp, the tests on inproc.
type Daemon struct {
	self      ids.ID
	tr        transport.Transport
	node      *core.Node
	mem       *shard.Map
	opTimeout time.Duration
	// Durability surface: stored reports a backend is attached; the
	// strings describe it in the /v1/storage document. snapBusy
	// serializes forced snapshots — a second trigger while one runs is
	// refused with snapshot_in_progress.
	stored   bool
	kind     string
	fsync    string
	dataDir  string
	snapBusy atomic.Bool
	// Observability: the per-daemon metrics registry (served on
	// GET /metrics), the HTTP instrumentation, and the pprof gate.
	reg      *obs.Registry
	httpReqs *httpInstruments
	pprof    bool
	// closeOnce makes Close run once; closeErr is what it returned.
	closeOnce sync.Once
	closeErr  error
}

// DaemonConfig carries everything NewDaemon needs beyond the transport
// and the node's own identity.
type DaemonConfig struct {
	// Peers is every node of the cluster (the connection universe).
	Peers ids.Set
	// Members is the initial configuration (empty = start as a joiner
	// and acquire participation through the joining protocol).
	Members ids.Set
	// Shards is the register-namespace partition count (raised to 1 if
	// smaller).
	Shards int
	// Batch bounds the hot-path batching — payloads per datalink token
	// cycle and commands per multicast round input (DESIGN.md §11;
	// <= 1 disables batching; the bound must be cluster-uniform).
	Batch int
	// Window bounds the in-flight datalink token cycles per link
	// (DESIGN.md §14; <= 1 is the stop-and-wait cycle; cluster-uniform
	// like Batch).
	Window int
	// MaxN is the system bound N (failure detector sizing).
	MaxN int
	// OpTimeout is the write/sync-read completion deadline
	// (<= 0 means 30s).
	OpTimeout time.Duration
	// DataDir enables the per-shard disk durability backend: each
	// shard logs to <DataDir>/shard-<i>/ and recovers from it at boot.
	// Empty means no durable storage (today's in-memory behavior).
	DataDir string
	// Fsync is the disk backend's durability policy (DataDir only).
	Fsync storage.Fsync
	// SnapEvery is the per-shard automatic compaction threshold: a
	// snapshot replaces the WAL once it holds this many records
	// (0 disables automatic snapshots; DataDir or Backends only).
	SnapEvery uint64
	// Backends overrides DataDir with caller-built per-shard backends
	// (tests inject temp-dir or failing backends here). When set, Kind
	// and the storage document reflect what it returns.
	Backends func(shard int) (storage.Backend, error)
	// Logf receives storage diagnostics (discarded-snapshot warnings,
	// truncated-tail notices). Nil means silent.
	Logf func(format string, a ...any)
	// Pprof mounts the net/http/pprof handlers on the client API
	// (api.PathPprof); off by default since the profiles expose
	// internals.
	Pprof bool
}

// NewDaemon builds and wires the stack: the sharded service stacks,
// their durability backends (recovering each shard's registers from
// its snapshot + WAL tail before the node first ticks), the core node,
// and the transport connections.
func NewDaemon(tr transport.Transport, self ids.ID, cfg DaemonConfig) (*Daemon, error) {
	if cfg.OpTimeout <= 0 {
		cfg.OpTimeout = 30 * time.Second
	}
	// Coordinator-led delicate reconfiguration (Algorithm 4.6): the
	// view coordinator reconfigures when a configuration member is no
	// longer trusted. recMA's prediction path stays disabled, exactly
	// as the paper's modified Algorithm 3.2 prescribes for the vs
	// service; its majority-loss trigger remains active. Every shard
	// applies the same predicate against the shared configuration.
	mem := shard.New(self, cfg.Shards, func(cur ids.Set, trusted ids.Set) bool {
		return cur.Diff(trusted).Size() > 0
	})
	if cfg.Batch < 1 {
		cfg.Batch = 1
	}
	if cfg.Window < 1 {
		cfg.Window = 1
	}
	mem.SetMaxBatch(cfg.Batch)

	d := &Daemon{self: self, tr: tr, mem: mem, opTimeout: cfg.OpTimeout}
	// Attach durability before the node exists: recovery seeds each
	// shard's replica state here, so no tick can observe (or gossip) a
	// pre-recovery empty state.
	mk := cfg.Backends
	if mk == nil && cfg.DataDir != "" {
		dir := cfg.DataDir
		mk = func(sh int) (storage.Backend, error) {
			return storage.OpenDisk(
				filepath.Join(dir, fmt.Sprintf("shard-%d", sh)),
				storage.DiskOptions{Fsync: cfg.Fsync, Logf: cfg.Logf})
		}
	}
	if mk != nil {
		if err := mem.AttachStorage(mk, cfg.SnapEvery); err != nil {
			return nil, fmt.Errorf("noded: storage: %w", err)
		}
		d.stored = true
		d.fsync = cfg.Fsync.String()
		d.dataDir = cfg.DataDir
		if st, ok := mem.StorageStats(0); ok {
			d.kind = st.Kind
		}
	}

	initial := recsa.NotParticipant()
	if !cfg.Members.Empty() {
		initial = recsa.ConfigOf(cfg.Members)
	}
	node, err := core.NewNode(tr, core.Params{
		Self:     self,
		N:        cfg.MaxN,
		Initial:  initial,
		EvalConf: func(ids.Set, ids.Set) bool { return false },
		Apps:     mem.Apps(),
		Link:     datalink.Options{MaxBatch: cfg.Batch, Window: cfg.Window},
	})
	if err != nil {
		return nil, err
	}
	d.node = node
	others := cfg.Peers.Remove(self)
	if !tr.Inspect(self, func() {
		node.ConnectAll(others)
		node.Detector.Bootstrap(others)
	}) {
		return nil, fmt.Errorf("noded: wiring node %v failed", self)
	}
	d.pprof = cfg.Pprof
	d.initMetrics()
	return d, nil
}

// Close stops the node and then closes every shard's storage backend,
// once: the final fsync that storage.FsyncSnapshot promises on close runs
// here. The node is stopped from inside one of its own slices, so the step
// that was running when Close was called has returned and none follows it:
// no Append races the close. (A node that was already stopped is left to
// whoever stopped it: Transport.Close waits for its last step.) Drain the
// client API first; later calls return the first call's result.
func (d *Daemon) Close() error {
	d.closeOnce.Do(func() {
		d.tr.Inspect(d.self, func() { d.tr.Crash(d.self) })
		d.closeErr = d.mem.CloseStorage()
	})
	return d.closeErr
}

// Node exposes the underlying core node (tests).
func (d *Daemon) Node() *core.Node { return d.node }

// Mem exposes the sharded register map (tests).
func (d *Daemon) Mem() *shard.Map { return d.mem }

func (d *Daemon) status() (api.Status, bool) {
	var st api.Status
	ok := d.tr.Inspect(d.self, func() {
		st.ID = int(d.self)
		st.Ticks = d.node.Ticks()
		st.Participant = d.node.IsParticipant()
		st.NoReco = d.node.NoReco()
		cfg, has := d.node.Quorum()
		st.HasConfig = has
		st.Config = setInts(cfg)
		st.Trusted = setInts(d.node.Trusted())
		st.Participants = setInts(d.node.Participants())
		st.Serving = st.Participant && st.HasConfig
		st.Shards = make([]api.ShardStatus, d.mem.N())
		for i := range st.Shards {
			st.Shards[i] = d.shardStatusLocked(i, st.Participant && st.HasConfig)
			st.Serving = st.Serving && st.Shards[i].Serving
		}
		// Shard 0 mirrors into the legacy top-level fields.
		st.HasView = st.Shards[0].HasView
		st.ViewCoord = st.Shards[0].ViewCoord
		st.ViewMembers = st.Shards[0].ViewMembers
	})
	return st, ok
}

// shardStatusLocked reads one shard's status; the caller must already be
// inside the node's execution context.
func (d *Daemon) shardStatusLocked(i int, reconfigured bool) api.ShardStatus {
	out := api.ShardStatus{Shard: i}
	mem, err := d.mem.Mem(i)
	if err != nil {
		return out
	}
	if v, hasV := mem.VS().CurrentView(); hasV {
		out.HasView = true
		out.ViewCoord = int(v.Coordinator())
		out.ViewMembers = setInts(v.Set)
	}
	out.Registers = mem.Registers()
	out.Rounds = mem.VS().Metrics().RoundsApplied
	out.Serving = reconfigured && out.HasView
	return out
}

// waitHandle blocks until the operation completes, the node stops taking
// steps, or the operation deadline passes — whichever comes first — and
// answers the two failures itself. It reports whether the operation
// completed. The node's own step wakes it: nothing is polled.
func (d *Daemon) waitHandle(w http.ResponseWriter, h *regmem.Handle, what string, sh int) bool {
	deadline := time.NewTimer(d.opTimeout)
	defer deadline.Stop()
	select {
	case <-h.Wait():
		return true
	case <-d.tr.Done(d.self):
		nodeDown(w)
	case <-deadline.C:
		api.WriteError(w, api.Errorf(api.CodeTimeout,
			"%s did not complete (retry)", what).WithShard(sh))
	}
	return false
}

// regName validates the register name of a request; empty (or
// all-whitespace) names are rejected with 400 before touching the stack.
func regName(w http.ResponseWriter, r *http.Request) (string, bool) {
	name := r.PathValue("name")
	if strings.TrimSpace(name) == "" {
		api.WriteError(w, api.Errorf(api.CodeEmptyRegister, "empty register name"))
		return "", false
	}
	return name, true
}

// checkShard validates a client-supplied shard index (path value or
// query parameter), rejecting malformed or out-of-range values with
// 400.
func (d *Daemon) checkShard(w http.ResponseWriter, raw string) (int, bool) {
	i, err := strconv.Atoi(raw)
	if err != nil || i < 0 || i >= d.mem.N() {
		api.WriteError(w, api.Errorf(api.CodeBadShard,
			"bad shard %q (node hosts shards 0..%d)", raw, d.mem.N()-1))
		return 0, false
	}
	return i, true
}

// shardParam resolves the ?shard= query parameter (default 0).
func (d *Daemon) shardParam(w http.ResponseWriter, r *http.Request) (int, bool) {
	q := r.URL.Query().Get("shard")
	if q == "" {
		return 0, true
	}
	return d.checkShard(w, q)
}

// nodeDown answers when the transport refuses to run an inspection —
// the node is closed or crashing.
func nodeDown(w http.ResponseWriter) {
	api.WriteError(w, api.Errorf(api.CodeUnavailable, "node is down"))
}

// storageDoc converts one shard's backend counters into the wire
// document.
func storageDoc(i int, st storage.Stats) api.ShardStorageStatus {
	doc := api.ShardStorageStatus{
		Shard:             i,
		Kind:              st.Kind,
		WALRecords:        st.WALRecords,
		WALBytes:          st.WALBytes,
		Appended:          st.Appended,
		Snapshots:         st.Snapshots,
		SnapshotIndex:     st.SnapshotIndex,
		SnapshotBytes:     st.SnapshotBytes,
		Recovered:         st.Recovery.Recovered,
		SnapshotLoaded:    st.Recovery.SnapshotLoaded,
		RecoveredBytes:    st.Recovery.SnapshotBytes,
		TailRecords:       st.Recovery.TailRecords,
		SkippedRecords:    st.Recovery.SkippedRecords,
		TruncatedWALBytes: st.Recovery.TruncatedBytes,
		Failed:            st.Failed,
		LastError:         st.LastError,
	}
	if !st.LastSnapshot.IsZero() {
		doc.LastSnapshotUnix = st.LastSnapshot.Unix()
	}
	return doc
}

// storageStatus reads the node-level durability document inside the
// execution context.
func (d *Daemon) storageStatus() (api.StorageStatus, bool) {
	st := api.StorageStatus{ID: int(d.self)}
	if !d.stored {
		return st, d.tr.Inspect(d.self, func() {})
	}
	ok := d.tr.Inspect(d.self, func() {
		st.Attached, st.Kind, st.Fsync, st.DataDir = true, d.kind, d.fsync, d.dataDir
		for i := 0; i < d.mem.N(); i++ {
			if s, has := d.mem.StorageStats(i); has {
				st.Shards = append(st.Shards, storageDoc(i, s))
			}
		}
	})
	return st, ok
}

// Handler returns the client API: the /v1 contract of repro/pkg/api,
// every response application/json, every error the uniform envelope.
func (d *Daemon) Handler() http.Handler {
	mux := http.NewServeMux()

	// Liveness: served without entering the node's execution context,
	// so it answers even while the stack is wedged mid-reconfiguration.
	// Scripts and CI poll this (cheap, no view lock) before switching
	// to the full status wait.
	mux.HandleFunc("GET "+api.PathHealthz, func(w http.ResponseWriter, r *http.Request) {
		api.WriteJSON(w, api.Health{OK: true, ID: int(d.self)})
	})

	mux.HandleFunc("GET "+api.PathStatus, func(w http.ResponseWriter, r *http.Request) {
		st, ok := d.status()
		if !ok {
			nodeDown(w)
			return
		}
		api.WriteJSON(w, st)
	})

	mux.HandleFunc("GET "+api.PathShards, func(w http.ResponseWriter, r *http.Request) {
		st, ok := d.status()
		if !ok {
			nodeDown(w)
			return
		}
		api.WriteJSON(w, st.Shards)
	})

	mux.HandleFunc("GET "+api.PathShards+"/{shard}", func(w http.ResponseWriter, r *http.Request) {
		i, ok := d.checkShard(w, r.PathValue("shard"))
		if !ok {
			return
		}
		st, ok := d.status()
		if !ok {
			nodeDown(w)
			return
		}
		api.WriteJSON(w, st.Shards[i])
	})

	getReg := func(w http.ResponseWriter, r *http.Request) {
		name, ok := regName(w, r)
		if !ok {
			return
		}
		if r.URL.Query().Get("sync") != "" {
			var h *regmem.Handle
			var sh int
			if !d.tr.Inspect(d.self, func() { h, sh = d.mem.SyncRead(name) }) {
				nodeDown(w)
				return
			}
			if !d.waitHandle(w, h, "sync read", sh) {
				return
			}
			v, found := h.Value()
			api.WriteJSON(w, api.RegResponse{Name: name, Shard: sh, Value: v, Found: found, Done: true})
			return
		}
		var resp api.RegResponse
		if !d.tr.Inspect(d.self, func() {
			v, found := d.mem.Read(name)
			resp = api.RegResponse{Name: name, Shard: shard.ShardFor(name, d.mem.N()), Value: v, Found: found, Done: true}
		}) {
			nodeDown(w)
			return
		}
		api.WriteJSON(w, resp)
	}
	mux.HandleFunc("GET "+api.PathReg+"{name}", getReg)

	putReg := func(w http.ResponseWriter, r *http.Request) {
		name, ok := regName(w, r)
		if !ok {
			return
		}
		body, err := io.ReadAll(io.LimitReader(r.Body, api.MaxBody))
		if err != nil {
			api.WriteError(w, api.Errorf(api.CodeBadRequest, "read body: %v", err))
			return
		}
		value := string(body)
		var h *regmem.Handle
		var sh int
		if !d.tr.Inspect(d.self, func() { h, sh = d.mem.Write(name, value) }) {
			nodeDown(w)
			return
		}
		if !d.waitHandle(w, h, "write", sh) {
			return
		}
		api.WriteJSON(w, api.RegResponse{Name: name, Shard: sh, Value: value, Done: true})
	}
	mux.HandleFunc("PUT "+api.PathReg+"{name}", putReg)
	mux.HandleFunc("POST "+api.PathReg+"{name}", putReg)
	// An empty {name} segment does not match the routes above; answer
	// it with an explicit 400 instead of a bare 404.
	emptyReg := func(w http.ResponseWriter, r *http.Request) {
		api.WriteError(w, api.Errorf(api.CodeEmptyRegister, "empty register name"))
	}
	mux.HandleFunc("GET "+api.PathReg+"{$}", emptyReg)
	mux.HandleFunc("PUT "+api.PathReg+"{$}", emptyReg)
	mux.HandleFunc("POST "+api.PathReg+"{$}", emptyReg)

	mux.HandleFunc("POST "+api.PathSMRPropose, func(w http.ResponseWriter, r *http.Request) {
		sh, ok := d.shardParam(w, r)
		if !ok {
			return
		}
		var req api.ProposeRequest
		if err := json.NewDecoder(io.LimitReader(r.Body, api.MaxBody)).Decode(&req); err != nil {
			api.WriteError(w, api.Errorf(api.CodeBadRequest, "decode: %v", err).WithShard(sh))
			return
		}
		accepted := false
		if !d.tr.Inspect(d.self, func() {
			mem, err := d.mem.Mem(sh)
			if err != nil {
				return
			}
			accepted = mem.Submit(smr.KVCmd{Op: smr.KVPut, Key: req.Key, Value: req.Value})
		}) {
			nodeDown(w)
			return
		}
		if !accepted {
			api.WriteError(w, api.Errorf(api.CodeOverload,
				"submission queue full (retry)").WithShard(sh))
			return
		}
		api.WriteJSON(w, api.ProposeResponse{Accepted: true, Shard: sh})
	})

	mux.HandleFunc("GET "+api.PathStorage, func(w http.ResponseWriter, r *http.Request) {
		st, ok := d.storageStatus()
		if !ok {
			nodeDown(w)
			return
		}
		api.WriteJSON(w, st)
	})

	mux.HandleFunc("GET "+api.PathStorage+"/{shard}", func(w http.ResponseWriter, r *http.Request) {
		i, ok := d.checkShard(w, r.PathValue("shard"))
		if !ok {
			return
		}
		if !d.stored {
			api.WriteError(w, api.Errorf(api.CodeStorageUnavailable,
				"node runs without a durability backend (start with -data-dir)").WithShard(i))
			return
		}
		var doc api.ShardStorageStatus
		has := false
		if !d.tr.Inspect(d.self, func() {
			var st storage.Stats
			if st, has = d.mem.StorageStats(i); has {
				doc = storageDoc(i, st)
			}
		}) {
			nodeDown(w)
			return
		}
		if !has {
			api.WriteError(w, api.Errorf(api.CodeStorageUnavailable,
				"shard has no durability backend").WithShard(i))
			return
		}
		api.WriteJSON(w, doc)
	})

	mux.HandleFunc("POST "+api.PathStorageSnapshot, func(w http.ResponseWriter, r *http.Request) {
		var req api.SnapshotRequest
		body, err := io.ReadAll(io.LimitReader(r.Body, api.MaxBody))
		if err != nil {
			api.WriteError(w, api.Errorf(api.CodeBadRequest, "read body: %v", err))
			return
		}
		if len(body) > 0 {
			if err := json.Unmarshal(body, &req); err != nil {
				api.WriteError(w, api.Errorf(api.CodeBadRequest, "decode: %v", err))
				return
			}
		}
		targets := make([]int, 0, d.mem.N())
		if req.Shard != nil {
			i, ok := d.checkShard(w, strconv.Itoa(*req.Shard))
			if !ok {
				return
			}
			targets = append(targets, i)
		} else {
			for i := 0; i < d.mem.N(); i++ {
				targets = append(targets, i)
			}
		}
		if !d.stored {
			e := api.Errorf(api.CodeStorageUnavailable,
				"node runs without a durability backend (start with -data-dir)")
			if req.Shard != nil {
				e = e.WithShard(*req.Shard)
			}
			api.WriteError(w, e)
			return
		}
		// One forced compaction at a time: a second trigger while the
		// first still runs gets the 409 (which clients never fail over —
		// snapshots are per-node state).
		if !d.snapBusy.CompareAndSwap(false, true) {
			api.WriteError(w, api.Errorf(api.CodeSnapshotInProgress,
				"a forced snapshot is already running"))
			return
		}
		defer d.snapBusy.Store(false)
		resp := api.SnapshotResponse{Snapshotted: []int{}}
		var snapErr error
		errShard := -1
		if !d.tr.Inspect(d.self, func() {
			for _, i := range targets {
				if err := d.mem.ForceSnapshot(i); err != nil {
					snapErr, errShard = err, i
					return
				}
				resp.Snapshotted = append(resp.Snapshotted, i)
				if st, has := d.mem.StorageStats(i); has {
					resp.Shards = append(resp.Shards, storageDoc(i, st))
				}
			}
		}) {
			nodeDown(w)
			return
		}
		if snapErr != nil {
			api.WriteError(w, api.Errorf(api.CodeStorageUnavailable,
				"snapshot failed: %v", snapErr).WithShard(errShard))
			return
		}
		api.WriteJSON(w, resp)
	})

	mux.HandleFunc("GET "+api.PathSMRLog, func(w http.ResponseWriter, r *http.Request) {
		sh, ok := d.shardParam(w, r)
		if !ok {
			return
		}
		n := 10
		if q := r.URL.Query().Get("n"); q != "" {
			if v, err := strconv.Atoi(q); err == nil && v > 0 {
				n = v
			}
		}
		var entries []api.LogEntry
		if !d.tr.Inspect(d.self, func() {
			mem, err := d.mem.Mem(sh)
			if err != nil {
				return
			}
			log := mem.SMR().Log()
			if len(log) > n {
				log = log[len(log)-n:]
			}
			entries = make([]api.LogEntry, 0, len(log))
			for _, a := range log {
				entries = append(entries, api.LogEntry{
					View:   a.View.String(),
					Rnd:    a.Rnd,
					Member: int(a.Member),
					Cmd:    fmt.Sprint(a.Cmd),
				})
			}
		}) {
			nodeDown(w)
			return
		}
		api.WriteJSON(w, entries)
	})

	// Operational endpoints outside the /v1 contract (documented in
	// pkg/api): the Prometheus text page, and — only when enabled — the
	// pprof profiles. /metrics bypasses the JSON envelope (its body is
	// text exposition format by definition).
	mux.HandleFunc("GET "+api.PathMetrics, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		//repolint:allow errenvelope -- /metrics serves Prometheus text exposition, not the JSON envelope
		_ = d.reg.Render(w)
	})
	if d.pprof {
		mux.HandleFunc(api.PathPprof, pprof.Index)
		mux.HandleFunc(api.PathPprof+"cmdline", pprof.Cmdline)
		mux.HandleFunc(api.PathPprof+"profile", pprof.Profile)
		mux.HandleFunc(api.PathPprof+"symbol", pprof.Symbol)
		mux.HandleFunc(api.PathPprof+"trace", pprof.Trace)
	}

	return d.httpReqs.instrument(envelopeFallbacks(mux))
}

// envelopeFallbacks wraps the mux so its built-in plain-text 404/405
// responses (unknown route, known route with the wrong method) carry
// the uniform JSON envelope instead: the contract promises
// application/json on every response. Handler-written JSON errors pass
// through untouched — they set their Content-Type before WriteHeader.
func envelopeFallbacks(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h.ServeHTTP(&envelopeWriter{ResponseWriter: w}, r)
	})
}

type envelopeWriter struct {
	http.ResponseWriter
	// rewrote: the plain-text error was replaced with an envelope and
	// the original body must be swallowed.
	rewrote bool
	wrote   bool
}

func (w *envelopeWriter) WriteHeader(code int) {
	w.wrote = true
	if (code == http.StatusNotFound || code == http.StatusMethodNotAllowed) &&
		!strings.Contains(w.Header().Get("Content-Type"), "json") {
		w.rewrote = true
		code2 := api.CodeNotFound
		if code == http.StatusMethodNotAllowed {
			code2 = api.CodeMethodNotAllowed
		}
		e := api.Errorf(code2, "%s", strings.ToLower(http.StatusText(code)))
		e.HTTPStatus = code
		api.WriteError(w.ResponseWriter, e)
		return
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *envelopeWriter) Write(b []byte) (int, error) {
	if !w.wrote {
		w.WriteHeader(http.StatusOK)
	}
	if w.rewrote {
		return len(b), nil
	}
	return w.ResponseWriter.Write(b)
}
