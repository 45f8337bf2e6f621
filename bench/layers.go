package main

import (
	"context"
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/obs"
)

// perLayer lists every per-layer metric, layer = module name. The traced
// pass of every workload prints all of them; a layer that does nothing on
// a workload reads 0 there, which is itself the "flat on" prediction of
// README.md. They carry no bound.
var perLayer = []metricSpec{
	// client: what the generator itself sees and costs.
	{Name: "client.healthz_rtt_us", Unit: "us", Better: "lower"},
	{Name: "client.retries", Unit: "count", Better: "lower"},
	{Name: "client.write_coord_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "client.write_follower_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "client.write_follower_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "client.sread_follower_p50_ms", Unit: "ms", Better: "lower"},
	// noded: HTTP handler, waitHandle polling, process start.
	{Name: "noded.solo_write_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "noded.inspect_wait_us", Unit: "us", Better: "lower"},
	{Name: "noded.http_plus_poll_ms", Unit: "ms", Better: "lower"},
	{Name: "noded.boot_ms", Unit: "ms", Better: "lower"},
	{Name: "noded.rejoin_ms", Unit: "ms", Better: "lower"},
	// regmem / smr / vs: the replicated service.
	{Name: "regmem.commit_coord_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "regmem.commit_follower_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "regmem.apply_ns", Unit: "ns", Better: "lower"},
	{Name: "vs.rounds_per_op", Unit: "count", Better: "lower"},
	{Name: "smr.ops_per_round", Unit: "count", Better: "higher"},
	{Name: "vs.view_changes", Unit: "count", Better: "lower"},
	{Name: "vs.view_install_ms", Unit: "ms", Better: "lower"},
	// core: the node step.
	{Name: "core.ticks_per_commit", Unit: "ticks", Better: "lower"},
	{Name: "core.tick_us", Unit: "us", Better: "lower"},
	{Name: "core.receive_us", Unit: "us", Better: "lower"},
	{Name: "core.busy_frac", Unit: "%", Better: "lower"},
	{Name: "core.node_tick_ns_1shard", Unit: "ns", Better: "lower"},
	{Name: "core.node_tick_ns_4shard", Unit: "ns", Better: "lower"},
	// datalink: token cycles and batching.
	{Name: "datalink.cycles_per_op", Unit: "count", Better: "lower"},
	{Name: "datalink.payloads_per_batch", Unit: "count", Better: "higher"},
	{Name: "datalink.evictions", Unit: "count", Better: "lower"},
	{Name: "datalink.tick_ns_w1", Unit: "ns", Better: "lower"},
	{Name: "datalink.tick_ns_w4", Unit: "ns", Better: "lower"},
	{Name: "datalink.handle_packet_ns", Unit: "ns", Better: "lower"},
	// wire: the codec.
	{Name: "wire.encode_ns_single", Unit: "ns", Better: "lower"},
	{Name: "wire.decode_ns_single", Unit: "ns", Better: "lower"},
	{Name: "wire.encode_ns_batch16", Unit: "ns", Better: "lower"},
	{Name: "wire.decode_ns_batch16", Unit: "ns", Better: "lower"},
	{Name: "wire.bytes_single", Unit: "B", Better: "lower"},
	{Name: "wire.bytes_batch16", Unit: "B", Better: "lower"},
	{Name: "wire.allocs_single", Unit: "count", Better: "lower"},
	// tcp: frames and connection writes.
	{Name: "tcp.frames_per_op", Unit: "count", Better: "lower"},
	{Name: "tcp.conn_writes_per_op", Unit: "count", Better: "lower"},
	{Name: "tcp.frames_per_conn_write", Unit: "count", Better: "higher"},
	{Name: "tcp.redials", Unit: "count", Better: "lower"},
	{Name: "tcp.send_us", Unit: "us", Better: "lower"},
	{Name: "tcp.loopback_rtt_us", Unit: "us", Better: "lower"},
	// storage: WAL, snapshots, recovery.
	{Name: "storage.append_us_always", Unit: "us", Better: "lower"},
	{Name: "storage.append_us_snapshot", Unit: "us", Better: "lower"},
	{Name: "storage.appends_per_op", Unit: "count", Better: "lower"},
	{Name: "storage.snapshot_ms", Unit: "ms", Better: "lower"},
	{Name: "storage.recover_ms", Unit: "ms", Better: "lower"},
	{Name: "storage.replayed_records", Unit: "count", Better: "lower"},
	{Name: "storage.fsync_probe_us", Unit: "us", Better: "lower"},
	// fd / recsa / join: the recovery timeline of a fault event.
	{Name: "fd.detect_ms", Unit: "ms", Better: "lower"},
	{Name: "fd.unavail_coord_ms", Unit: "ms", Better: "lower"},
	{Name: "fd.unavail_follower_ms", Unit: "ms", Better: "lower"},
	{Name: "recsa.reconfig_ms", Unit: "ms", Better: "lower"},
	{Name: "join.adopt_ms", Unit: "ms", Better: "lower"},
	// sim: counts on the simulated clock; they repeat exactly.
	{Name: "sim.stabilize_ticks", Unit: "ticks", Better: "lower"},
	{Name: "sim.reconfig_gap_ticks", Unit: "ticks", Better: "lower"},
	{Name: "sim.join_ticks", Unit: "ticks", Better: "lower"},
	{Name: "sim.write_ticks_per_op", Unit: "ticks", Better: "lower"},
	{Name: "sim.ops_per_ktick", Unit: "1/ktick", Better: "higher"},
	{Name: "sim.wall_s", Unit: "s", Better: "lower"},
	// trace: what tracing itself costs.
	{Name: "trace.overhead_frac", Unit: "%", Better: "higher"},
	{Name: "trace.spans", Unit: "count", Better: "lower"},
}

// perOp divides a count by acknowledged operations (0 for none).
func perOp(count float64, ops int) float64 {
	if ops == 0 {
		return 0
	}
	return count / float64(ops)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// spanLayers fills the layer numbers that come from the embedded stack's
// decorator spans over [from, to).
func spanLayers(layer map[string]float64, tr *tracer, wall time.Duration, nodes int) {
	tr.mu.Lock()
	stats := selfTimes(tr.spans)
	n := len(tr.spans)
	tr.mu.Unlock()
	layer["core.tick_us"] = meanUS(stats, "core.tick")
	layer["core.receive_us"] = meanUS(stats, "core.receive")
	layer["tcp.send_us"] = meanUS(stats, "tcp.send")
	if st := stats["storage.append"]; st.count > 0 {
		layer["storage.append_us_always"] = meanUS(stats, "storage.append")
	}
	busy := stats["core.tick"].total + stats["core.receive"].total
	layer["core.busy_frac"] = 100 * ratio(busy.Seconds(), wall.Seconds()*float64(nodes))
	layer["trace.spans"] = float64(n)
}

// counterLayers fills the per-operation counts of a run.
func counterLayers(layer map[string]float64, c counterDelta, ops int) {
	layer["tcp.frames_per_op"] = perOp(c.frames, ops)
	layer["tcp.conn_writes_per_op"] = perOp(c.connWrites, ops)
	layer["tcp.frames_per_conn_write"] = ratio(c.frames, c.connWrites)
	layer["tcp.redials"] = c.redials
	layer["datalink.cycles_per_op"] = perOp(c.cycles, ops)
	layer["datalink.payloads_per_batch"] = ratio(c.batchPayloads, c.batches)
	layer["datalink.evictions"] = c.evicted
	layer["vs.rounds_per_op"] = perOp(c.rounds, ops)
	layer["smr.ops_per_round"] = ratio(float64(ops), c.rounds)
	layer["vs.view_changes"] = c.views
	layer["storage.appends_per_op"] = perOp(c.appends, ops)
}

// pageDelta reads the same counts off a noded cluster's /metrics pages
// around the measured window. coord indexes the coordinator's page.
func pageDelta(before, after page, coord int) counterDelta {
	d := func(name string) float64 { return after.sum(name, nil) - before.sum(name, nil) }
	const rounds = "repro_vs_rounds_applied_total"
	return counterDelta{
		frames:        d("repro_tcp_frames_written_total"),
		connWrites:    d("repro_tcp_conn_writes_total"),
		redials:       d("repro_tcp_redials_total"),
		cycles:        d("repro_datalink_cycles_total"),
		batches:       d("repro_datalink_batches_total"),
		batchPayloads: d("repro_datalink_batch_payloads_total"),
		evicted:       d("repro_datalink_evictions_total"),
		rounds:        after[coord:coord+1].sum(rounds, nil) - before[coord:coord+1].sum(rounds, nil),
		views:         d("repro_vs_views_installed_total"),
		appends:       d("repro_storage_appends_total"),
	}
}

// steadyLayers is the traced half of the steady workload: the client and
// daemon overheads from the live cluster, and the same configuration as an
// embedded twin (1 shard, batch 1, window 1, fsync always) at depth 1,
// whose decorator spans say where a commit's time goes below HTTP.
func steadyLayers(ctx context.Context, cfg runConfig, res *result, sc *steadyCluster, run *steadyRun, tr *tracer) error {
	L := res.layer
	L["client.write_coord_p50_ms"] = median(lat(run.wa))
	L["client.write_follower_p50_ms"] = median(lat(run.wb))
	L["client.write_follower_p95_ms"] = percentile(lat(run.wb), 0.95)
	L["client.sread_follower_p50_ms"] = median(lat(run.rb))
	ops := len(run.wa) + len(run.wb) + len(run.ra) + len(run.rb)
	counterLayers(L, pageDelta(run.before, run.after, sc.coord), ops)
	// Requests the servers saw beyond the calls the clients made.
	regs := obs.Labels{"route": "registers"}
	seen := run.after.sum("repro_http_requests_total", regs) - run.before.sum("repro_http_requests_total", regs)
	L["client.retries"] = seen - float64(ops+sc.a.failed+sc.b.failed)

	// The HTTP stack alone, then a local read, which adds one trip
	// through the node's inbox.
	var health, local []float64
	for i := 0; i < 300; i++ {
		t0 := time.Now()
		if _, err := sc.a.c.Healthz(ctx); err != nil {
			return err
		}
		health = append(health, us(time.Since(t0)))
		t0 = time.Now()
		if _, err := sc.a.c.Read(ctx, sc.a.keys[0].name); err != nil {
			return err
		}
		local = append(local, us(time.Since(t0)))
	}
	L["client.healthz_rtt_us"] = median(health)
	L["noded.inspect_wait_us"] = median(local) - median(health)
	var boots []float64
	for _, p := range sc.cl.nodes {
		boots = append(boots, ms(p.healthyAfter))
	}
	L["noded.boot_ms"] = median(boots)

	// A one-node cluster: no peer to wait for, so what is left is local
	// tick and poll quantization plus one fsync.
	solo, err := newCluster(cfg.noded, cfg.scratch, 1, 0)
	if err != nil {
		return err
	}
	defer solo.stop()
	if _, err := solo.boot(ctx, 1); err != nil {
		return err
	}
	sp := newPinned(solo.nodes[0].c, 1, "solo", steadyKeys, cfg.seed, nil)
	sp.loop(ctx, time.Now().Add(500*time.Millisecond), sp.write)
	L["noded.solo_write_p50_ms"] = median(lat(sp.loop(ctx, time.Now().Add(2*time.Second), sp.write)))
	solo.stop()

	twin := embedOpts{shards: 1, batch: 1, window: 1, dataDir: filepath.Join(cfg.scratch, "twin"), tr: tr}
	// Steady has a client on the coordinator and on one follower; so does
	// the twin.
	tw, err := runPipelineOnce(twin, loadOpts{depth: 1, writers: 2, measure: 3 * time.Second, poll: 200 * time.Microsecond, seed: cfg.seed})
	if err != nil {
		return err
	}
	for _, p := range tw.load.problems {
		res.fail("embedded twin: %s", p)
	}
	var coord, follower []float64
	for _, op := range tw.load.ops {
		if op.coord {
			coord = append(coord, op.latMS)
		} else {
			follower = append(follower, op.latMS)
		}
	}
	L["regmem.commit_coord_p50_ms"] = median(coord)
	L["regmem.commit_follower_p50_ms"] = median(follower)
	L["noded.http_plus_poll_ms"] = L["client.write_coord_p50_ms"] - L["regmem.commit_coord_p50_ms"]
	L["core.ticks_per_commit"] = perOp(tw.counter.ticks, len(coord))
	spanLayers(L, tr, time.Second+3*time.Second, 3)

	if err := storageMicro(cfg.scratch, L); err != nil {
		return err
	}
	if L["storage.fsync_probe_us"], err = fsyncProbe(cfg.scratch); err != nil {
		return err
	}
	return writeTrace(cfg, res, tr)
}

func writeTrace(cfg runConfig, res *result, tr *tracer) error {
	path, err := tr.write(cfg.outDir, res.workload)
	if err != nil {
		return err
	}
	fmt.Fprintf(cfg.log, "%s: spans written to %s\n", res.workload, path)
	return nil
}

// pipelineLayers is the traced half of the pipeline workload: half the
// time undecorated (the reference for the tracing overhead), half with the
// span decorators on; then the micro loops of the layers that carry load
// here.
func pipelineLayers(cfg runConfig, res *result) error {
	L := res.layer
	plain, err := runPipelineOnce(pipelineOpts, pipelineLoad(cfg.measure/2, cfg.seed))
	if err != nil {
		return err
	}
	tr := newTracer()
	opts := pipelineOpts
	opts.tr = tr
	traced, err := runPipelineOnce(opts, pipelineLoad(cfg.measure/2, cfg.seed))
	if err != nil {
		return err
	}
	res.fromLoads([]loadResult{traced.load})
	if plain.moved || traced.moved {
		res.fail("a view was installed during the traced pass; roles were not stable")
	}
	counterLayers(L, traced.counter, len(traced.load.ops))
	spanLayers(L, tr, pipelineWarmup+cfg.measure/2, 3)
	L["trace.overhead_frac"] = 100 * ratio(float64(len(traced.load.ops)), float64(len(plain.load.ops)))

	if err := wireMicro(traced.sample, L); err != nil {
		return err
	}
	L["datalink.tick_ns_w1"], _ = datalinkMicro(1)
	L["datalink.tick_ns_w4"], L["datalink.handle_packet_ns"] = datalinkMicro(4)
	if L["tcp.loopback_rtt_us"], err = loopbackRTT(); err != nil {
		return err
	}
	return writeTrace(cfg, res, tr)
}

// faultTimeline is what polling the survivors' /v1/status every 5 ms saw
// after a kill, each as time since the kill.
type faultTimeline struct {
	detect      time.Duration // victim left a survivor's trusted set (fd)
	reconfig    time.Duration // victim left a survivor's configuration (recSA)
	viewInstall time.Duration // first prober success after the kill (vs)
}

// statusPoller polls the survivors until finish. It loads them with a few
// hundred status requests a second, which is why only the traced pass
// runs it.
type statusPoller struct {
	stop              chan struct{}
	wg                sync.WaitGroup
	mu                sync.Mutex
	untrusted, outCfg time.Time
}

func startStatusPoller(ctx context.Context, survivors []*proc, victim int) *statusPoller {
	sp := &statusPoller{stop: make(chan struct{})}
	contains := func(set []int) bool {
		for _, id := range set {
			if id == victim {
				return true
			}
		}
		return false
	}
	sp.wg.Add(1)
	go func() {
		defer sp.wg.Done()
		for {
			select {
			case <-sp.stop:
				return
			case <-ctx.Done():
				return
			case <-time.After(5 * time.Millisecond):
			}
			for _, p := range survivors {
				st, err := p.status(ctx)
				if err != nil {
					continue
				}
				now := time.Now()
				sp.mu.Lock()
				if sp.untrusted.IsZero() && !contains(st.Trusted) {
					sp.untrusted = now
				}
				if sp.outCfg.IsZero() && !contains(st.Config) {
					sp.outCfg = now
				}
				sp.mu.Unlock()
			}
		}
	}()
	return sp
}

func (sp *statusPoller) finish(killAt time.Time) faultTimeline {
	close(sp.stop)
	sp.wg.Wait()
	var tl faultTimeline
	if !sp.untrusted.IsZero() {
		tl.detect = sp.untrusted.Sub(killAt)
	}
	if !sp.outCfg.IsZero() {
		tl.reconfig = sp.outCfg.Sub(killAt)
	}
	return tl
}

// faultLayers is the traced half of the fault workload: the recovery
// timeline of the (two) polled events, and live joiner adoption — printed
// as a diagnostic because it did not repeat within a tenth.
func faultLayers(ctx context.Context, cfg runConfig, res *result, all []*faultEvent) error {
	L := res.layer
	var detect, reconfig, install, rejoin, respawn, replayed, redials []float64
	for _, ev := range all {
		detect = append(detect, ms(ev.timeline.detect))
		reconfig = append(reconfig, ms(ev.timeline.reconfig))
		install = append(install, ms(ev.timeline.viewInstall))
		rejoin = append(rejoin, ms(ev.rejoin))
		respawn = append(respawn, ev.respawnMS)
		replayed = append(replayed, ev.replayed)
		redials = append(redials, ev.redials)
		if ev.coordKilled {
			L["fd.unavail_coord_ms"] = ms(ev.unavail)
		} else {
			L["fd.unavail_follower_ms"] = ms(ev.unavail)
		}
	}
	L["fd.detect_ms"] = median(detect)
	L["recsa.reconfig_ms"] = median(reconfig)
	L["vs.view_install_ms"] = median(install)
	L["noded.rejoin_ms"] = median(rejoin)
	L["noded.boot_ms"] = median(respawn)
	L["storage.replayed_records"] = median(replayed)
	L["tcp.redials"] = median(redials)

	// Joiner adoption needs the joiner's address in every boot-time book,
	// so it gets a cluster of its own rather than changing the measured ones.
	cl, err := newCluster(cfg.noded, cfg.scratch, 3, 1)
	if err != nil {
		return err
	}
	defer cl.stop()
	if _, err := cl.boot(ctx, 3); err != nil {
		return err
	}
	joiner := cl.nodes[3]
	if err := cl.start(joiner, "none"); err != nil {
		return err
	}
	deadline := time.Now().Add(20 * time.Second)
	for {
		if st, err := joiner.status(ctx); err == nil && st.Serving {
			L["join.adopt_ms"] = ms(time.Since(joiner.spawned))
			break
		}
		if time.Now().After(deadline) {
			res.fail("joiner was not adopted within 20 s")
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	res.diag("join.adopt_ms", "ms", L["join.adopt_ms"])
	return nil
}
