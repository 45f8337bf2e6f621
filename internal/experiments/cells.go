package experiments

import (
	"fmt"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/counter"
	"repro/internal/datalink"
	"repro/internal/ids"
	"repro/internal/label"
	"repro/internal/netsim"
	"repro/internal/recsa"
	"repro/internal/regmem"
	"repro/internal/shard"
	"repro/internal/sim"
	"repro/internal/transport/wire"
	"repro/internal/vs"
	"repro/internal/workload"
)

const deadline sim.Time = 400_000

// Each eNCell function below runs one (seed, size) cell of experiment EN:
// a fresh, fully self-contained simulation whose outcome depends only on
// its arguments. The engine fans cells out over a worker pool; the
// sequential wrappers in experiments.go sweep them over a size list.

// e1Cell measures Figure 2 / Theorem 3.16: the virtual time a delicate
// replacement takes from estab() to a system-wide installed
// configuration.
func e1Cell(seed int64, n int) workload.Row {
	c, err := core.BootstrapCluster(n, core.DefaultClusterOptions(seed))
	if err != nil {
		return workload.Row{X: n, Note: "bootstrap: " + err.Error()}
	}
	c.RunFor(800)
	target := ids.Range(1, ids.ID(n-1))
	start := c.Sched.Now()
	if !c.Node(1).Estab(target) {
		return workload.Row{X: n, Note: "estab rejected"}
	}
	ok := c.Sched.RunWhile(func() bool {
		cfg, conv := c.ConvergedConfig()
		return !(conv && cfg.Equal(target))
	}, 10_000_000)
	return workload.Row{X: n, Y: float64(c.Sched.Now() - start), Valid: ok, Note: "estab→installed"}
}

// e2Cell measures Theorem 3.15: virtual time to converge from a fully
// corrupted state (all layers randomized, stale packets in the channels).
func e2Cell(seed int64, n int) workload.Row {
	c, err := core.BootstrapCluster(n, core.DefaultClusterOptions(seed))
	if err != nil {
		return workload.Row{X: n, Note: "bootstrap: " + err.Error()}
	}
	c.RunFor(800)
	d, ok := workload.MeasureConvergence(c, 4*n, deadline)
	return workload.Row{X: n, Y: float64(d), Valid: ok, Note: "corrupt→converged"}
}

// e3Cell measures Lemma 3.18: reconfiguration triggerings caused by
// corrupted recMA flags, against the O(N²·cap) bound. Only the management
// layer is corrupted; recSA stays clean, so every triggering is
// attributable to stale flags.
func e3Cell(seed int64, n int) workload.Row {
	c, err := core.BootstrapCluster(n, core.DefaultClusterOptions(seed))
	if err != nil {
		return workload.Row{X: n, Note: "bootstrap: " + err.Error()}
	}
	c.RunFor(800)
	rng := c.Sched.Rand()
	c.EachAlive(func(node *core.Node) {
		node.MA.CorruptState(rng, c.IDs())
	})
	c.RunFor(20_000)
	total := uint64(0)
	c.EachAlive(func(node *core.Node) {
		m := node.MA.Metrics()
		total += m.TriggeredNoMaj + m.TriggeredPredict
	})
	bound := n * n * netsim.DefaultOptions().Capacity
	return workload.Row{X: n, Y: float64(total), Valid: int(total) <= bound,
		Note: fmt.Sprintf("bound N²·cap=%d", bound)}
}

// e4Labels is the shared E4 prelude: per-member label stores corrupted
// with wild labels, gossiped until agreement (Theorem 4.4). It returns
// the stores, membership, and the round count (-1 if no agreement).
// Both E4 arms run it from scratch — the postreco cell deliberately
// recomputes the arbitrary phase rather than sharing state with the
// arbitrary cell, keeping every grid cell independent (the property the
// engine's parallel fan-out and per-cell seeds rely on). E4 cells cost
// milliseconds, so the duplication is immaterial.
func e4Labels(seed int64, n int) (map[ids.ID]*label.Store, ids.Set, int) {
	const m = 8
	members := ids.Range(1, ids.ID(n))
	stores := make(map[ids.ID]*label.Store, n)
	members.Each(func(id ids.ID) {
		stores[id] = label.NewStore(id, members, label.DefaultStoreOptions(n, m))
	})
	rng := newRng(seed)
	members.Each(func(id ids.ID) {
		for k := 0; k < n; k++ {
			cr := ids.ID(rng.Intn(n) + 1)
			stores[id].InjectMax(cr, label.Pair{ML: label.Label{
				Creator: cr, Sting: rng.Intn(64),
				Antistings: []int{rng.Intn(64)},
			}})
		}
	})
	rounds := exchangeLabels(stores, members, 400)
	return stores, members, rounds
}

// e4ArbitraryCell counts label creations until a global maximal label
// from an arbitrary corrupted state (bound O(N(N²+m))).
func e4ArbitraryCell(seed int64, n int) workload.Row {
	const m = 8
	stores, members, rounds := e4Labels(seed, n)
	total := uint64(0)
	members.Each(func(id ids.ID) { total += stores[id].Metrics().Creations })
	return workload.Row{X: n, Y: float64(total), Valid: rounds >= 0,
		Note: fmt.Sprintf("bound N(N²+m)=%d", n*(n*n+m))}
}

// e4PostRebuildCell counts label creations to the next agreement right
// after a clean rebuild (bound O(N²)).
func e4PostRebuildCell(seed int64, n int) workload.Row {
	stores, members, _ := e4Labels(seed, n)
	members.Each(func(id ids.ID) { stores[id].Rebuild(members) })
	base := uint64(0)
	members.Each(func(id ids.ID) { base += stores[id].Metrics().Creations })
	exchangeLabels(stores, members, 400)
	total := uint64(0)
	members.Each(func(id ids.ID) { total += stores[id].Metrics().Creations })
	return workload.Row{X: n, Y: float64(total - base), Valid: true,
		Note: fmt.Sprintf("bound N²=%d", n*n)}
}

// e5Cell measures Theorem 4.6 operationally: virtual-time latency per
// completed counter increment.
func e5Cell(seed int64, n int) workload.Row {
	mgrs := map[ids.ID]*counter.Manager{}
	opts := core.DefaultClusterOptions(seed)
	opts.AppFactory = func(self ids.ID) core.App {
		m := counter.NewManager(self)
		mgrs[self] = m
		return m
	}
	c, err := core.BootstrapCluster(n, opts)
	if err != nil {
		return workload.Row{X: n, Note: "bootstrap: " + err.Error()}
	}
	c.RunFor(800)
	const opsWanted = 10
	start := c.Sched.Now()
	done := 0
	for i := 0; i < opsWanted; i++ {
		who := ids.ID(i%n + 1)
		op := mgrs[who].Increment(c.Node(who))
		if c.Sched.RunWhile(func() bool { return !op.Done() }, 4_000_000) {
			if _, err := op.Result(); err == nil {
				done++
			}
		}
	}
	elapsed := c.Sched.Now() - start
	if done == 0 {
		return workload.Row{X: n, Note: "no ops completed"}
	}
	return workload.Row{X: n, Y: float64(elapsed) / float64(done), Valid: done == opsWanted,
		Note: fmt.Sprintf("%d/%d ops", done, opsWanted)}
}

// countingApp is the replicated application used by E6.
type countingApp struct{ delivered int }

func (a *countingApp) InitState() any { return 0 }
func (a *countingApp) Apply(state any, r vs.Round) any {
	v, _ := state.(int)
	return v + len(r.Inputs)
}
func (a *countingApp) Fetch() any         { return "x" }
func (a *countingApp) Pending() bool      { return true }
func (a *countingApp) Deliver(r vs.Round) { a.delivered++ }

// e6Cell measures Theorem 4.13: the service gap (virtual ticks without
// round progress) around a coordinator-led delicate reconfiguration, and
// whether the replica state survived.
func e6Cell(seed int64, n int) workload.Row {
	mgrs := map[ids.ID]*vs.Manager{}
	opts := core.DefaultClusterOptions(seed)
	opts.Node.EvalConf = func(ids.Set, ids.Set) bool { return false }
	eval := func(cur ids.Set, trusted ids.Set) bool {
		return cur.Diff(trusted).Size() > 0
	}
	opts.AppFactory = func(self ids.ID) core.App {
		m := vs.NewManager(self, &countingApp{}, eval)
		mgrs[self] = m
		return m
	}
	c, err := core.BootstrapCluster(n, opts)
	if err != nil {
		return workload.Row{X: n, Note: "bootstrap: " + err.Error()}
	}
	// Wait for a first view and some rounds.
	ok := c.Sched.RunWhile(func() bool {
		_, has := mgrs[1].CurrentView()
		return !has
	}, 6_000_000)
	if !ok {
		return workload.Row{X: n, Note: "no initial view"}
	}
	c.RunFor(3000)
	state0, _ := mgrs[1].Replica().State.(int)
	// Crash the highest non-coordinator: evalConf starts firing.
	v, _ := mgrs[1].CurrentView()
	victim := ids.ID(n)
	if victim == v.Coordinator() {
		victim = ids.ID(n - 1)
	}
	c.Crash(victim)
	start := c.Sched.Now()
	ok = c.Sched.RunWhile(func() bool {
		cfg, conv := c.ConvergedConfig()
		if !conv || cfg.Contains(victim) {
			return true
		}
		good := true
		c.EachAlive(func(node *core.Node) {
			nv, has := mgrs[node.Self()].CurrentView()
			if !has || nv.Set.Contains(victim) {
				good = false
			}
		})
		return !good
	}, 20_000_000)
	gap := c.Sched.Now() - start
	state1, _ := mgrs[1].Replica().State.(int)
	preserved := state1 >= state0
	return workload.Row{X: n, Y: float64(gap), Valid: ok && preserved,
		Note: fmt.Sprintf("state %d→%d preserved=%v", state0, state1, preserved)}
}

// e7Cell measures Theorem 3.26: time for a joining processor to become a
// participant.
func e7Cell(seed int64, n int) workload.Row {
	c, err := core.BootstrapCluster(n, core.DefaultClusterOptions(seed))
	if err != nil {
		return workload.Row{X: n, Note: "bootstrap: " + err.Error()}
	}
	c.RunFor(800)
	j, err := c.AddJoiner(ids.ID(n + 10))
	if err != nil {
		return workload.Row{X: n, Note: "join: " + err.Error()}
	}
	start := c.Sched.Now()
	ok := c.Sched.RunWhile(func() bool { return !j.IsParticipant() }, 6_000_000)
	return workload.Row{X: n, Y: float64(c.Sched.Now() - start), Valid: ok, Note: "join→participant"}
}

// e8SelfStabCell measures recovery time of the self-stabilizing scheme
// after a transient fault (the paper's headline claim, §1).
func e8SelfStabCell(seed int64, n int) workload.Row {
	c, err := core.BootstrapCluster(n, core.DefaultClusterOptions(seed))
	if err != nil {
		return workload.Row{X: n, Note: "bootstrap: " + err.Error()}
	}
	c.RunFor(800)
	d, ok := workload.MeasureConvergence(c, 2*n, deadline)
	return workload.Row{X: n, Y: float64(d), Valid: ok, Note: "corrupt→converged"}
}

// e8BaselineCell subjects the coherent-start baseline to the same fault:
// it stays split forever, reported as the deadline with Valid=false.
func e8BaselineCell(seed int64, n int) workload.Row {
	sched := sim.NewScheduler(seed)
	net := netsim.New(sched, netsim.DefaultOptions())
	bc, err := baseline.NewCluster(net, n)
	if err != nil {
		return workload.Row{X: n, Note: "bootstrap: " + err.Error()}
	}
	sched.RunUntil(800)
	half := ids.Range(1, ids.ID(n/2))
	rest := ids.Range(ids.ID(n/2+1), ids.ID(n))
	for i := 1; i <= n; i++ {
		if i <= n/2 {
			bc.Node(ids.ID(i)).Corrupt(half, 7)
		} else {
			bc.Node(ids.ID(i)).Corrupt(rest, 7)
		}
	}
	start := sched.Now()
	recovered := false
	for sched.Now()-start < deadline {
		if _, ok := bc.Converged(); ok {
			recovered = true
			break
		}
		sched.RunUntil(sched.Now() + 1000)
	}
	return workload.Row{X: n, Y: float64(sched.Now() - start), Valid: recovered, Note: "split-brain"}
}

// e9Cell measures the MWMR register emulation's write latency.
func e9Cell(seed int64, n int) workload.Row {
	mems, c, err := memCluster(seed, n)
	if err != nil {
		return workload.Row{X: n, Note: "bootstrap: " + err.Error()}
	}
	ok := c.Sched.RunWhile(func() bool {
		_, has := mems[1].VS().CurrentView()
		return !has
	}, 6_000_000)
	if !ok {
		return workload.Row{X: n, Note: "no view"}
	}
	const opsWanted = 8
	start := c.Sched.Now()
	done := 0
	for i := 0; i < opsWanted; i++ {
		who := ids.ID(i%n + 1)
		h := mems[who].Write("reg", fmt.Sprintf("v%d", i))
		if c.Sched.RunWhile(func() bool { return !h.Done() }, 4_000_000) {
			done++
		}
	}
	elapsed := c.Sched.Now() - start
	if done == 0 {
		return workload.Row{X: n, Note: "no ops"}
	}
	return workload.Row{X: n, Y: float64(elapsed) / float64(done), Valid: done == opsWanted,
		Note: fmt.Sprintf("%d/%d writes", done, opsWanted)}
}

// e11Cell builds one arm of E11 "shard scaling": aggregate register
// throughput on a fixed 3-node cluster whose register namespace is
// partitioned over the grid size — for this experiment the swept N is
// the SHARD count (1/2/4/8), not the cluster size. Every shard runs its
// own vs round pipeline over the shared reconfiguration layer, so the
// offered load (a fixed batch per shard, issued round-robin across the
// nodes) completes in roughly 1/N of the single-stack virtual time; the
// reported value is aggregate completed operations per kilotick (higher
// is better). The write arm measures register writes, the syncread arm
// marker-flushed synchronous reads.
func e11Cell(sync bool) func(seed int64, n int) workload.Row {
	return func(seed int64, n int) workload.Row {
		const nodes = 3
		const opsPerShard = 12
		maps, c, err := shardedMemCluster(seed, nodes, n)
		if err != nil {
			return workload.Row{X: n, Note: "bootstrap: " + err.Error()}
		}
		allViews := func() bool {
			for id := ids.ID(1); id <= nodes; id++ {
				for s := 0; s < n; s++ {
					mem, err := maps[id].Mem(s)
					if err != nil {
						return false
					}
					if _, has := mem.VS().CurrentView(); !has {
						return false
					}
				}
			}
			return true
		}
		if !c.Sched.RunWhile(func() bool { return !allViews() }, 8_000_000) {
			return workload.Row{X: n, Note: "not every shard installed a view"}
		}
		names := shard.NamesPerShard(n, opsPerShard)
		var handles []*regmem.Handle
		start := c.Sched.Now()
		k := 0
		for s := 0; s < n; s++ {
			for i, name := range names[s] {
				who := ids.ID(k%nodes + 1)
				k++
				var h *regmem.Handle
				if sync {
					h, _ = maps[who].SyncRead(name)
				} else {
					h, _ = maps[who].Write(name, fmt.Sprintf("v%d", i))
				}
				handles = append(handles, h)
			}
		}
		ok := c.Sched.RunWhile(func() bool {
			for _, h := range handles {
				if !h.Done() {
					return true
				}
			}
			return false
		}, 8_000_000)
		elapsed := c.Sched.Now() - start
		done := 0
		for _, h := range handles {
			if h.Done() {
				done++
			}
		}
		if done == 0 || elapsed <= 0 {
			return workload.Row{X: n, Note: "no ops completed"}
		}
		return workload.Row{
			X:     n,
			Y:     float64(done) / float64(elapsed) * 1000,
			Valid: ok,
			Note:  fmt.Sprintf("%d/%d ops in %d ticks", done, len(handles), elapsed),
		}
	}
}

// e12Cell builds one arm of E12 "batch scaling": register throughput on
// a fixed 3-node single-shard cluster whose hot path batches up to the
// grid size — for this experiment the swept N is the BATCH bound
// (1/4/16/64): datalink.Options.MaxBatch payloads per token cycle and
// smr.Replica.MaxBatch commands per round input. The offered load (a
// fixed operation count issued round-robin across the nodes, the same
// at every batch size for comparability) completes in fewer multicast
// rounds as batches fill, so the reported aggregate ops/kilotick rises
// until the per-node backlog no longer fills a batch (the saturation
// knee between 16 and 64 on this workload); per-op latency is the
// reciprocal, giving the E9-style latency/throughput trade-off. Batch 1
// is bit-identical to the unbatched configuration (the determinism
// regression relies on it).
func e12Cell(sync bool) func(seed int64, n int) workload.Row {
	return func(seed int64, n int) workload.Row {
		const nodes = 3
		const opsTotal = 48
		mems, c, err := batchMemCluster(seed, nodes, n)
		if err != nil {
			return workload.Row{X: n, Note: "bootstrap: " + err.Error()}
		}
		ok := c.Sched.RunWhile(func() bool {
			_, has := mems[1].VS().CurrentView()
			return !has
		}, 6_000_000)
		if !ok {
			return workload.Row{X: n, Note: "no view"}
		}
		var handles []*regmem.Handle
		start := c.Sched.Now()
		for i := 0; i < opsTotal; i++ {
			who := ids.ID(i%nodes + 1)
			var h *regmem.Handle
			if sync {
				h = mems[who].SyncRead(fmt.Sprintf("k%d", i))
			} else {
				h = mems[who].Write(fmt.Sprintf("k%d", i), fmt.Sprintf("v%d", i))
			}
			handles = append(handles, h)
		}
		ok = c.Sched.RunWhile(func() bool {
			for _, h := range handles {
				if !h.Done() {
					return true
				}
			}
			return false
		}, 8_000_000)
		elapsed := c.Sched.Now() - start
		done := 0
		for _, h := range handles {
			if h.Done() {
				done++
			}
		}
		if done == 0 || elapsed <= 0 {
			return workload.Row{X: n, Note: "no ops completed"}
		}
		return workload.Row{
			X:     n,
			Y:     float64(done) / float64(elapsed) * 1000,
			Valid: ok,
			Note:  fmt.Sprintf("%d/%d ops in %d ticks", done, len(handles), elapsed),
		}
	}
}

// e13Cell is the throughput arm of E13 "pipelining frontier": register
// write throughput on a fixed 3-node single-shard cluster with the
// hot-path batch bound held at 16 (E12's knee) while the swept N is the
// datalink WINDOW — the in-flight token cycles per link. Window 1 is
// bit-identical to the E12 batch-16 cell; wider windows restart the token
// cycle on acknowledgment instead of waiting for the next tick, so
// throughput rises with the window until the queue no longer keeps it
// full. Together with the codec-bytes series below it charts the
// latency/throughput frontier's two levers (window, codec). The offered
// load doubles E12's (96 ops, issued round-robin) so the pipeline has a
// backlog to stream; throughput is still comparable since both
// experiments report steady-state aggregate ops/kilotick.
func e13Cell(seed int64, n int) workload.Row {
	const nodes = 3
	const batch = 16
	const opsTotal = 96
	mems, c, err := pipelinedMemCluster(seed, nodes, batch, n)
	if err != nil {
		return workload.Row{X: n, Note: "bootstrap: " + err.Error()}
	}
	ok := c.Sched.RunWhile(func() bool {
		_, has := mems[1].VS().CurrentView()
		return !has
	}, 6_000_000)
	if !ok {
		return workload.Row{X: n, Note: "no view"}
	}
	var handles []*regmem.Handle
	start := c.Sched.Now()
	for i := 0; i < opsTotal; i++ {
		who := ids.ID(i%nodes + 1)
		handles = append(handles, mems[who].Write(fmt.Sprintf("k%d", i), fmt.Sprintf("v%d", i)))
	}
	ok = c.Sched.RunWhile(func() bool {
		for _, h := range handles {
			if !h.Done() {
				return true
			}
		}
		return false
	}, 8_000_000)
	elapsed := c.Sched.Now() - start
	done := 0
	for _, h := range handles {
		if h.Done() {
			done++
		}
	}
	if done == 0 || elapsed <= 0 {
		return workload.Row{X: n, Note: "no ops completed"}
	}
	return workload.Row{
		X:     n,
		Y:     float64(done) / float64(elapsed) * 1000,
		Valid: ok,
		Note:  fmt.Sprintf("%d/%d ops in %d ticks", done, len(handles), elapsed),
	}
}

// e13CodecCell is E13's codec lever, measured without a simulation: the
// encoded bytes per payload of one hot DATA packet carrying an N-payload
// batch of representative envelopes (wire.EncodedSize). The numbers are
// pure functions of the codec — deterministic across runs and machines —
// and chart how batches amortize the packet header.
func e13CodecCell(seed int64, n int) workload.Row {
	batch := make([]any, n)
	for i := range batch {
		batch[i] = core.Envelope{
			App:       fmt.Sprintf("cmd-%03d", i),
			ShardApps: []core.ShardApp{{Shard: 1, App: fmt.Sprintf("s-%03d", i)}},
		}
	}
	pkt := datalink.Packet{Kind: datalink.KindData, Session: 7, Seq: 1, Batch: batch}
	size, err := wire.EncodedSize(wire.NewMsg(1, 2, pkt))
	if err != nil {
		return workload.Row{X: n, Note: "encoding failed: " + err.Error()}
	}
	return workload.Row{
		X:     n,
		Y:     float64(size) / float64(n),
		Valid: true,
		Note:  fmt.Sprintf("%d bytes for %d payloads", size, n),
	}
}

// e14Regs is the pre-churn register workload size shared by both E14
// profiles: enough writes to make state survival meaningful, few enough
// that the cell's cost is dominated by the churn event it measures.
const e14Regs = 8

// e14Seed seeds a churn cluster and completes the pre-churn register
// workload, returning the cluster handles and whether setup succeeded.
func e14Seed(seed int64, nodes, batch, window int) (map[ids.ID]*regmem.SharedMemory, *core.Cluster, string) {
	mems, c, err := churnMemCluster(seed, nodes, batch, window)
	if err != nil {
		return nil, nil, "bootstrap: " + err.Error()
	}
	ok := c.Sched.RunWhile(func() bool {
		_, has := mems[1].VS().CurrentView()
		return !has
	}, 6_000_000)
	if !ok {
		return nil, nil, "no initial view"
	}
	var handles []*regmem.Handle
	for i := 0; i < e14Regs; i++ {
		who := ids.ID(i%nodes + 1)
		handles = append(handles, mems[who].Write(fmt.Sprintf("r%d", i), fmt.Sprintf("v%d", i)))
	}
	ok = c.Sched.RunWhile(func() bool {
		for _, h := range handles {
			if !h.Done() {
				return true
			}
		}
		return false
	}, 8_000_000)
	if !ok {
		return nil, nil, "pre-churn writes incomplete"
	}
	return mems, c, ""
}

// e14PostWrite submits one fresh write and waits until it lands: the
// handle completes, or the value is readable from the local replica. The
// second arm matters under churn — a state adoption can jump the replica
// past the round that carried the command, losing the per-handle
// delivery indication while the write itself is durably applied (the
// same at-least-once hazard pkg/client documents); what the cell must
// assert is that the service resumed, not that no ack was lost.
func e14PostWrite(c *core.Cluster, mem *regmem.SharedMemory) bool {
	h := mem.Write("post", "1")
	return c.Sched.RunWhile(func() bool {
		if h.Done() {
			return false
		}
		got, has := mem.Read("post")
		return !(has && got == "1")
	}, 8_000_000)
}

// e14Survived reports whether every acked pre-churn write is still
// readable with its value on the given replica.
func e14Survived(mem *regmem.SharedMemory) bool {
	for i := 0; i < e14Regs; i++ {
		got, has := mem.Read(fmt.Sprintf("r%d", i))
		if !has || got != fmt.Sprintf("v%d", i) {
			return false
		}
	}
	return true
}

// e14KillCell is the E14 kill/recover profile: a 5-node churn cluster
// (the real membership eval, see churnMemCluster) completes a register
// workload, then the highest non-coordinator is crashed mid-service.
// The measured value is the virtual time from the crash to full
// recovery — configuration converged without the victim, every
// survivor's view excluding it — and validity additionally demands that
// every acked pre-kill write is still readable (Theorem 4.13's state
// preservation) and that a fresh post-recovery write completes (the
// service actually resumed). The swept N is the datalink WINDOW; batch
// is the arm's fixed hot-path bound, so the grid predicts how the live
// churn harness's recovery time moves with the transport levers.
func e14KillCell(batch int) func(seed int64, n int) workload.Row {
	return func(seed int64, n int) workload.Row {
		const nodes = 5
		mems, c, note := e14Seed(seed, nodes, batch, n)
		if note != "" {
			return workload.Row{X: n, Note: note}
		}
		v, _ := mems[1].VS().CurrentView()
		victim := ids.ID(nodes)
		if victim == v.Coordinator() {
			victim = ids.ID(nodes - 1)
		}
		c.Crash(victim)
		start := c.Sched.Now()
		ok := c.Sched.RunWhile(func() bool {
			cfg, conv := c.ConvergedConfig()
			if !conv || cfg.Contains(victim) {
				return true
			}
			good := true
			c.EachAlive(func(node *core.Node) {
				nv, has := mems[node.Self()].VS().CurrentView()
				if !has || nv.Set.Contains(victim) {
					good = false
				}
			})
			return !good
		}, 20_000_000)
		recovery := c.Sched.Now() - start
		survived := e14Survived(mems[1])
		resumed := e14PostWrite(c, mems[1])
		return workload.Row{X: n, Y: float64(recovery), Valid: ok && survived && resumed,
			Note: fmt.Sprintf("batch %d: acked survived=%v resumed=%v", batch, survived, resumed)}
	}
}

// e14JoinCell is the E14 joiner-adoption profile: a 3-node churn
// cluster completes a register workload, then a fresh processor joins
// through Algorithm 3.3 (join requests → majority pass → participate)
// and the coordinator extends the view around it. The measured value is
// the virtual time from the join start until the joiner is a
// participant inside a view containing it AND every acked pre-join
// write is readable from the joiner's own replica — the simnet twin of
// the live harness's "-members none process reaches serving with state
// intact". The swept N and the batch arm mirror the kill profile.
func e14JoinCell(batch int) func(seed int64, n int) workload.Row {
	return func(seed int64, n int) workload.Row {
		const nodes = 3
		mems, c, note := e14Seed(seed, nodes, batch, n)
		if note != "" {
			return workload.Row{X: n, Note: note}
		}
		jid := ids.ID(nodes + 10)
		j, err := c.AddJoiner(jid)
		if err != nil {
			return workload.Row{X: n, Note: "join: " + err.Error()}
		}
		start := c.Sched.Now()
		ok := c.Sched.RunWhile(func() bool {
			if !j.IsParticipant() {
				return true
			}
			jv, has := mems[jid].VS().CurrentView()
			if !has || !jv.Set.Contains(jid) {
				return true
			}
			return !e14Survived(mems[jid])
		}, 20_000_000)
		adopt := c.Sched.Now() - start
		serving := e14PostWrite(c, mems[jid])
		return workload.Row{X: n, Y: float64(adopt), Valid: ok && serving,
			Note: fmt.Sprintf("batch %d: adopted state, serving=%v", batch, serving)}
	}
}

// e10Cell builds the cell function for one degree-gap arm of the E10
// ablation (DESIGN.md §4 note 5): delicate replacement latency and
// spurious resets under the given staleness tolerance.
func e10Cell(gap int) func(seed int64, n int) workload.Row {
	return func(seed int64, n int) workload.Row {
		opts := core.DefaultClusterOptions(seed)
		opts.Node.RecSA = recsa.Options{DegreeGap: gap}
		c, err := core.BootstrapCluster(n, opts)
		if err != nil {
			return workload.Row{X: n, Note: "bootstrap: " + err.Error()}
		}
		c.RunFor(800)
		target := ids.Range(1, ids.ID(n-1))
		start := c.Sched.Now()
		c.Node(1).Estab(target)
		ok := c.Sched.RunWhile(func() bool {
			cfg, conv := c.ConvergedConfig()
			return !(conv && cfg.Equal(target))
		}, 10_000_000)
		resets := uint64(0)
		c.EachAlive(func(node *core.Node) { resets += node.SA.Metrics().Resets })
		return workload.Row{X: n, Y: float64(c.Sched.Now() - start), Valid: ok,
			Note: fmt.Sprintf("spurious resets=%d", resets)}
	}
}
