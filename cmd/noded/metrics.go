package main

// Metrics wiring: one obs.Registry per daemon, every subsystem exported
// through it. Counters that already live in atomics (tcp, datalink, vs,
// shard router, node ticks) are exposed as lock-free views — the same
// instruments the packages' own Stats()/Metrics() snapshots read, so
// nothing is counted twice. State that only the node's execution
// context may touch (smr pending depth, storage backend counters) is
// refreshed by a gather hook doing a single transport Inspect per
// scrape. See DESIGN.md §13 for the metric name table.

import (
	"fmt"
	"net/http"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/datalink"
	"repro/internal/ids"
	"repro/internal/obs"
	"repro/internal/transport/tcp"
	"repro/pkg/api"
)

// tcpStats is the slice of *tcp.Net the metrics layer needs; the daemon
// stays transport-generic (inproc test transports simply expose no
// transport family).
type tcpStats interface{ Stats() tcp.Stats }

// tickLateObserver is what the transports whose node timers run on the
// wall clock (tcp, inproc) offer; a medium without one simply exports no
// tick-lateness family.
type tickLateObserver interface {
	ObserveTickLate(id ids.ID, fn func(late time.Duration)) bool
}

// storageMirror holds one shard's backend counters, copied out of the
// node context by the gather hook and read lock-free by counter views.
type storageMirror struct {
	appended  atomic.Uint64
	snapshots atomic.Uint64
}

// initMetrics builds the daemon's registry and registers every
// subsystem. Called once from NewDaemon, after storage is attached and
// the node exists.
func (d *Daemon) initMetrics() {
	reg := obs.NewRegistry()
	d.reg = reg

	reg.CounterFunc("repro_node_ticks_total",
		"Timer ticks executed by the node's step machine.",
		nil, d.node.Ticks)
	reg.CounterFunc("repro_node_receipt_steps_total",
		"Service-layer steps taken on a delivery, a submission or a connection-loss hint instead of the timer: a follower's write path, and every phase of a view change.",
		nil, d.node.ReceiptSteps)
	reg.CounterFunc("repro_fd_peer_down_total",
		"Connection-loss hints from the transport that raised a failure-detector count.",
		nil, d.node.PeerDowns)
	// How long after its due time each tick started: the node's clock as
	// the wall clock saw it. The observer runs on the node's run loop, so
	// the histogram is resolved here and only Observe (pure atomics) runs
	// per tick.
	if tl, ok := d.tr.(tickLateObserver); ok {
		late := reg.Histogram("repro_node_tick_late_seconds",
			"Time from a timer tick's due time to its start.",
			nil, []float64{0.00005, 0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.1})
		tl.ObserveTickLate(d.self, func(l time.Duration) { late.Observe(l.Seconds()) })
	}

	registerBuildInfo(reg)
	d.registerDatalink(reg)
	d.registerTCP(reg)
	d.registerShards(reg)
	d.registerJoin(reg)
	d.registerNodeStateHook(reg)
	d.httpReqs = newHTTPInstruments(reg)
}

// Registry returns the daemon's metrics registry (tests scrape it
// directly; the HTTP layer serves it on GET /metrics).
func (d *Daemon) Registry() *obs.Registry { return d.reg }

// registerBuildInfo exports the toolchain and VCS identity of the
// running binary as a constant-1 gauge, prometheus build_info style, so
// dashboards can pivot every other series on what produced it.
func registerBuildInfo(reg *obs.Registry) {
	reg.GaugeFunc("repro_build_info",
		"Build identity of the running noded binary; value is always 1.",
		obs.Labels{"go_version": runtime.Version(), "vcs_rev": vcsRevision()},
		func() float64 { return 1 })
}

// vcsRevision digs the commit hash out of the embedded build info;
// "unknown" when built without VCS stamping (go run, test binaries).
func vcsRevision() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" && s.Value != "" {
				return s.Value
			}
		}
	}
	return "unknown"
}

func (d *Daemon) registerDatalink(reg *obs.Registry) {
	ep := d.node.Endpoint
	view := func(f func(datalink.Stats) uint64) func() uint64 {
		return func() uint64 { return f(ep.Stats()) }
	}
	reg.CounterFunc("repro_datalink_cleanings_total",
		"Link cleaning phases entered (bootstrap, corruption recovery, timeouts).",
		nil, view(func(s datalink.Stats) uint64 { return s.Cleanings }))
	reg.CounterFunc("repro_datalink_cycles_total",
		"Completed token cycles (one DATA/ACK exchange each).",
		nil, view(func(s datalink.Stats) uint64 { return s.CyclesDone }))
	reg.CounterFunc("repro_datalink_delivered_total",
		"Payloads handed to the upper layer.",
		nil, view(func(s datalink.Stats) uint64 { return s.Delivered }))
	reg.CounterFunc("repro_datalink_stale_ignored_total",
		"Packets ignored as stale (wrong session, overtaken sequence).",
		nil, view(func(s datalink.Stats) uint64 { return s.StaleIgnored }))
	reg.CounterFunc("repro_datalink_timeouts_total",
		"Progress timeouts that forced a link re-clean.",
		nil, view(func(s datalink.Stats) uint64 { return s.TimeoutsReset }))
	reg.CounterFunc("repro_datalink_batches_total",
		"Multi-payload DATA cycles completed by the sender.",
		nil, view(func(s datalink.Stats) uint64 { return s.Batches }))
	reg.CounterFunc("repro_datalink_batch_payloads_total",
		"Payloads delivered out of received batches.",
		nil, view(func(s datalink.Stats) uint64 { return s.BatchPayloads }))
	reg.CounterFunc("repro_datalink_evictions_total",
		"Queued payloads displaced by outbound-queue overflow.",
		nil, view(func(s datalink.Stats) uint64 { return s.QueueEvicted }))
	reg.CounterFunc("repro_datalink_kicked_cycles_total",
		"DATA cycles started off the timer because the node's outgoing state changed.",
		nil, view(func(s datalink.Stats) uint64 { return s.KickedCycles }))
	reg.GaugeFunc("repro_datalink_queue_depth",
		"Total outbound-queue depth across all links.",
		nil, func() float64 { return float64(ep.QueuedTotal()) })
	reg.GaugeFunc("repro_datalink_inflight_window",
		"In-flight DATA cycles across all links (pipelined window occupancy).",
		nil, func() float64 { return float64(ep.InflightTotal()) })
	// Cycle ack RTT, measured in endpoint ticks. The observer runs with
	// the datalink mutex held, so it must stay allocation-free: resolve
	// the histogram once here, only Observe (pure atomics) inside.
	ackHist := reg.Histogram("repro_datalink_ack_rtt_ticks",
		"Ticks from a DATA cycle's first transmission to its completing ack.",
		nil, []float64{1, 2, 4, 8, 16, 32, 64, 128})
	ep.SetAckRTTObserver(func(ticks uint64) { ackHist.Observe(float64(ticks)) })
}

func (d *Daemon) registerTCP(reg *obs.Registry) {
	tn, ok := d.tr.(tcpStats)
	if !ok {
		return
	}
	view := func(f func(tcp.Stats) uint64) func() uint64 {
		return func() uint64 { return f(tn.Stats()) }
	}
	reg.CounterFunc("repro_tcp_sent_total",
		"Messages handed to the TCP transport.",
		nil, view(func(s tcp.Stats) uint64 { return s.Sent }))
	reg.CounterFunc("repro_tcp_delivered_total",
		"Messages delivered to the local handler.",
		nil, view(func(s tcp.Stats) uint64 { return s.Delivered }))
	reg.CounterFunc("repro_tcp_dropped_total",
		"Messages dropped (injected loss, full queues, unreachable peers).",
		nil, view(func(s tcp.Stats) uint64 { return s.Dropped }))
	reg.CounterFunc("repro_tcp_duplicated_total",
		"Messages duplicated by injected duplication.",
		nil, view(func(s tcp.Stats) uint64 { return s.Duplicated }))
	reg.CounterFunc("repro_tcp_redials_total",
		"Peer connections re-established after failure.",
		nil, view(func(s tcp.Stats) uint64 { return s.Redials }))
	reg.CounterFunc("repro_tcp_decode_errors_total",
		"Inbound frames that failed to decode.",
		nil, view(func(s tcp.Stats) uint64 { return s.DecodeErrs }))
	reg.CounterFunc("repro_tcp_conn_writes_total",
		"Connection flushes performed by peer writers.",
		nil, view(func(s tcp.Stats) uint64 { return s.ConnWrites }))
	reg.CounterFunc("repro_tcp_frames_written_total",
		"Wire frames carried by connection flushes.",
		nil, view(func(s tcp.Stats) uint64 { return s.FramesWritten }))
	reg.GaugeFunc("repro_tcp_write_coalescing",
		"Achieved write coalescing factor: frames written per connection flush.",
		nil, func() float64 {
			s := tn.Stats()
			if s.ConnWrites == 0 {
				return 0
			}
			return float64(s.FramesWritten) / float64(s.ConnWrites)
		})
}

// registerShards exports the per-shard atomically-readable layers: the
// vs event counters, the shard router's op counters, and the snapshot
// duration histogram fed by the regmem observer hook.
func (d *Daemon) registerShards(reg *obs.Registry) {
	for i := 0; i < d.mem.N(); i++ {
		i := i
		lbl := obs.Labels{"shard": strconv.Itoa(i)}
		mem, err := d.mem.Mem(i)
		if err != nil {
			continue
		}
		mgr := mem.VS()
		type vsField func() uint64
		vsCounters := []struct {
			name, help string
			f          vsField
		}{
			{"repro_vs_rounds_applied_total", "Multicast rounds applied to the replica state machine.",
				func() uint64 { return mgr.Metrics().RoundsApplied }},
			{"repro_vs_views_installed_total", "Views installed (coordinator or follower side).",
				func() uint64 { return mgr.Metrics().ViewsInstalled }},
			{"repro_vs_proposals_total", "View proposals staged by this node as coordinator.",
				func() uint64 { return mgr.Metrics().Proposals }},
			{"repro_vs_suspended_ticks_total", "Ticks spent with the service suspended for reconfiguration.",
				func() uint64 { return mgr.Metrics().SuspendedTicks }},
			{"repro_vs_reconfig_requests_total", "Delicate reconfigurations requested by the coordinator.",
				func() uint64 { return mgr.Metrics().ReconfigRequests }},
			{"repro_vs_state_adoptions_total", "Replica-state adoptions (view changes, joins, recovery).",
				func() uint64 { return mgr.Metrics().Adoptions }},
			{"repro_vs_state_mismatches_total", "Adopted states differing from the locally recomputed Apply result.",
				func() uint64 { return mgr.Metrics().StateMismatches }},
			{"repro_vs_no_coordinator_ticks_total", "Participant ticks spent without an established coordinator.",
				func() uint64 { return mgr.Metrics().NoCoordinatorTicks }},
			{"repro_vs_echo_rounds_total", "Loaded rounds this node completed as coordinator on their last echo instead of on a tick.",
				func() uint64 { return mgr.Metrics().EchoRounds }},
		}
		for _, c := range vsCounters {
			//repolint:allow metricname -- names come from the literal vsCounters table above; each row is allowlist-checked as a repro_ string literal
			reg.CounterFunc(c.name, c.help, lbl, c.f)
		}

		for _, op := range []struct {
			op string
			f  func() uint64
		}{
			{"write", func() uint64 { return d.mem.OpStats(i).Writes }},
			{"read", func() uint64 { return d.mem.OpStats(i).Reads }},
			{"sync_read", func() uint64 { return d.mem.OpStats(i).SyncReads }},
		} {
			reg.CounterFunc("repro_shard_ops_total",
				"Register operations routed to the shard, by kind.",
				obs.Labels{"shard": strconv.Itoa(i), "op": op.op}, op.f)
		}

		if d.stored {
			snapHist := reg.Histogram("repro_storage_snapshot_seconds",
				"Duration of snapshot saves.", lbl,
				[]float64{0.001, 0.005, 0.025, 0.1, 0.5, 2.5})
			snapFails := reg.Counter("repro_storage_snapshot_errors_total",
				"Snapshot saves that failed.", lbl)
			mem.ObserveSnapshots(func(dur time.Duration, err error) {
				snapHist.Observe(dur.Seconds())
				if err != nil {
					snapFails.Inc()
				}
			})
		}
	}
}

// registerJoin exports the joining mechanism's protocol counters
// (Algorithm 3.3). The Joiner's counters are atomics, so the views are
// lock-free like the vs ones; the participant gauge is node-context
// state and is refreshed by the gather hook below.
func (d *Daemon) registerJoin(reg *obs.Registry) {
	j := d.node.Joiner
	reg.CounterFunc("repro_join_requests_total",
		"Join requests issued by this node's joiner loop.",
		nil, func() uint64 { return j.Metrics().Requests })
	reg.CounterFunc("repro_join_responses_total",
		"Join requests answered by this node as a configuration member.",
		nil, func() uint64 { return j.Metrics().Responses })
	reg.CounterFunc("repro_join_joined_total",
		"Successful adoptions: majority pass collected and participation granted.",
		nil, func() uint64 { return j.Metrics().Joined })
	reg.CounterFunc("repro_join_denied_total",
		"Adoption attempts where recSA refused participation.",
		nil, func() uint64 { return j.Metrics().Denied })
}

// registerNodeStateHook exports the state only the node's execution
// context may read: smr pending depth, the participant flag, and the
// storage backend counters. One Inspect per scrape refreshes all of it.
func (d *Daemon) registerNodeStateHook(reg *obs.Registry) {
	n := d.mem.N()
	participant := reg.Gauge("repro_join_participant",
		"1 while recSA reports this node a participant, 0 while joining.", nil)
	pending := make([]*obs.Gauge, n)
	mirrors := make([]*storageMirror, n)
	walRecords := make([]*obs.Gauge, n)
	walBytes := make([]*obs.Gauge, n)
	snapBytes := make([]*obs.Gauge, n)
	failed := make([]*obs.Gauge, n)
	for i := 0; i < n; i++ {
		lbl := obs.Labels{"shard": strconv.Itoa(i)}
		pending[i] = reg.Gauge("repro_smr_pending_commands",
			"Commands submitted but not yet sent into a round.", lbl)
		if !d.stored {
			continue
		}
		m := &storageMirror{}
		mirrors[i] = m
		reg.CounterFunc("repro_storage_appends_total",
			"WAL records appended since attach.", lbl,
			m.appended.Load)
		reg.CounterFunc("repro_storage_snapshots_total",
			"Snapshots saved since attach.", lbl,
			m.snapshots.Load)
		walRecords[i] = reg.Gauge("repro_storage_wal_records",
			"Live WAL records past the newest snapshot.", lbl)
		walBytes[i] = reg.Gauge("repro_storage_wal_bytes",
			"Bytes in the live WAL tail.", lbl)
		snapBytes[i] = reg.Gauge("repro_storage_snapshot_bytes",
			"Size of the newest snapshot.", lbl)
		failed[i] = reg.Gauge("repro_storage_failed",
			"Storage failure latch: 1 after an unrecoverable backend error.", lbl)
	}
	reg.OnGather(func() {
		d.tr.Inspect(d.self, func() {
			if d.node.IsParticipant() {
				participant.Set(1)
			} else {
				participant.Set(0)
			}
			for i := 0; i < n; i++ {
				mem, err := d.mem.Mem(i)
				if err != nil {
					continue
				}
				pending[i].Set(float64(mem.SMR().PendingLen()))
				if mirrors[i] == nil {
					continue
				}
				st, ok := d.mem.StorageStats(i)
				if !ok {
					continue
				}
				mirrors[i].appended.Store(st.Appended)
				mirrors[i].snapshots.Store(st.Snapshots)
				walRecords[i].Set(float64(st.WALRecords))
				walBytes[i].Set(float64(st.WALBytes))
				snapBytes[i].Set(float64(st.SnapshotBytes))
				if st.Failed {
					failed[i].Set(1)
				} else {
					failed[i].Set(0)
				}
			}
		})
	})
}

// --- HTTP instrumentation ---

// httpInstruments records the client API's request counts and
// latencies. Series are resolved through the registry per request
// (bounded cardinality: normalized route × status code).
type httpInstruments struct {
	reg *obs.Registry
}

func newHTTPInstruments(reg *obs.Registry) *httpInstruments {
	return &httpInstruments{reg: reg}
}

// routeLabel normalizes a request path to a bounded route label; path
// parameters (register names, shard indices) never become label values.
func routeLabel(path string) string {
	switch {
	case path == api.PathHealthz:
		return "healthz"
	case path == api.PathStatus:
		return "status"
	case path == api.PathMetrics:
		return "metrics"
	case path == api.PathStorageSnapshot:
		return "storage_snapshot"
	case path == api.PathStorage || len(path) > len(api.PathStorage) && path[:len(api.PathStorage)+1] == api.PathStorage+"/":
		return "storage"
	case path == api.PathShards || len(path) > len(api.PathShards) && path[:len(api.PathShards)+1] == api.PathShards+"/":
		return "shards"
	case path == api.PathSMRPropose:
		return "smr_propose"
	case path == api.PathSMRLog:
		return "smr_log"
	case len(path) >= len(api.PathReg) && path[:len(api.PathReg)] == api.PathReg:
		return "registers"
	case len(path) >= len(api.PathPprof) && path[:len(api.PathPprof)] == api.PathPprof:
		return "pprof"
	default:
		return "other"
	}
}

// instrument wraps a handler with request counting and latency
// histograms.
func (hi *httpInstruments) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		next.ServeHTTP(sw, r)
		route := routeLabel(r.URL.Path)
		hi.reg.Counter("repro_http_requests_total",
			"Client API requests, by normalized route and status code.",
			obs.Labels{"route": route, "code": fmt.Sprintf("%d", sw.code)}).Inc()
		hi.reg.Histogram("repro_http_request_seconds",
			"Client API request latency, by normalized route.",
			obs.Labels{"route": route}, obs.DefLatencyBuckets).
			Observe(time.Since(start).Seconds())
	})
}

// statusWriter captures the response status code for the request
// counter.
type statusWriter struct {
	http.ResponseWriter
	code  int
	wrote bool
}

func (w *statusWriter) WriteHeader(code int) {
	if !w.wrote {
		w.code = code
		w.wrote = true
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if !w.wrote {
		w.wrote = true
	}
	return w.ResponseWriter.Write(b)
}
