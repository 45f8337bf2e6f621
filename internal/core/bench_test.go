package core_test

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/ids"
	"repro/internal/netsim"
	"repro/internal/recsa"
	"repro/internal/shard"
	"repro/internal/sim"
)

// nodeTickAllocCeiling is the number of objects one timer step of a settled
// three-node register node may allocate, by shard count. Measured: 17.4 with
// one shard, 42.8 with four — 22.4 and 47.8 while every packet in flight
// was a heap-allocated event and a closure, 107.8 and 272.3 before a step's
// pure functions were computed once and its snapshot shared.
// TestQuiescentTickAllocCeiling holds the tree to it and BenchmarkNodeTick
// fails itself above it, which is how CI gates it.
// What is left is what a step hands over by value: per peer the recSA
// message with that peer's echo and the envelope and the packet around it,
// per shard and peer the payload around the step's one shared record, and
// per step that record, the recMA message, the detector's ranking and
// recSA's participant set (DESIGN.md §3, "What a step may cache"). Sending
// the packets costs nothing more: a delivery is a recycled record and its
// event a value in the scheduler's ring. A step that allocates more has
// started to rebuild something per peer or per caller again.
var nodeTickAllocCeiling = map[int]float64{1: 21, 4: 49}

// nodeReceiveAllocCeiling is the allocs/op BenchmarkNodeReceive may report,
// a whole number as -benchmem prints it; the benchmark fails itself above
// it. Delivering a packet allocates nothing. What is left is the data
// link's ACK boxed into Send's payload: 0.44 objects per received packet
// (1.33 while a delivery cost an event and a closure).
const nodeReceiveAllocCeiling = 0

// probe sits between the simulated network and node 1. It drops the ticks
// the network schedules for node 1 — the caller ticks it directly, so a step
// can be timed on its own — and, when holding, keeps what the network
// delivers to node 1 until the caller takes it.
type probe struct {
	*netsim.Network
	holding bool
	inbox   []delivery
}

type delivery struct {
	from    ids.ID
	payload any
}

type probed struct {
	p    *probe
	node netsim.Handler
}

func (h probed) Tick() {}

func (h probed) Receive(from ids.ID, payload any) {
	if h.p.holding {
		h.p.inbox = append(h.p.inbox, delivery{from, payload})
		return
	}
	h.node.Receive(from, payload)
}

func (p *probe) AddNode(id ids.ID, h netsim.Handler) error {
	if id == 1 {
		h = probed{p: p, node: h}
	}
	return p.Network.AddNode(id, h)
}

// settled builds a three-node register cluster with the given number of
// shards on a lossless network without delay, so that every tick finds its
// last token returned and opens a fresh cycle toward each peer, and runs it
// until every shard has installed its view and gone idle. It returns the
// scheduler, the probe and node 1.
func settled(tb testing.TB, shards int) (*sim.Scheduler, *probe, *core.Node) {
	tb.Helper()
	sched := sim.NewScheduler(1)
	p := &probe{Network: netsim.New(sched, netsim.Options{Capacity: 64, TickEvery: 10, TickJitter: 5})}
	all := ids.Range(1, 3)
	nodes := map[ids.ID]*core.Node{}
	all.Each(func(id ids.ID) {
		n, err := core.NewNode(p, core.Params{
			Self: id, N: 16, Initial: recsa.ConfigOf(all),
			Apps: shard.New(id, shards, nil).Apps(),
		})
		if err != nil {
			tb.Fatal(err)
		}
		nodes[id] = n
	})
	all.Each(func(id ids.ID) {
		nodes[id].ConnectAll(all.Remove(id))
		nodes[id].Detector.Bootstrap(all.Remove(id))
	})
	for i := 0; i < 400; i++ {
		nodes[1].Tick()
		sched.RunUntil(sched.Now() + 10)
	}
	if q, ok := nodes[1].Quorum(); !ok || !q.Equal(all) || !nodes[1].NoReco() {
		tb.Fatalf("the cluster did not settle: quorum %v (%v), noReco %v", q, ok, nodes[1].NoReco())
	}
	return sched, p, nodes[1]
}

// tickAllocs returns the mean number of objects one Tick of the settled
// node allocates, the rest of the cluster's period excluded.
func tickAllocs(sched *sim.Scheduler, node *core.Node, runs int) float64 {
	var before, after runtime.MemStats
	total := uint64(0)
	for i := 0; i < runs; i++ {
		runtime.ReadMemStats(&before)
		node.Tick()
		runtime.ReadMemStats(&after)
		total += after.Mallocs - before.Mallocs
		sched.RunUntil(sched.Now() + 10)
	}
	return float64(total) / float64(runs)
}

func TestQuiescentTickAllocCeiling(t *testing.T) {
	for _, shards := range []int{1, 4} {
		sched, _, node := settled(t, shards)
		got := tickAllocs(sched, node, 200)
		t.Logf("%d shard(s): %.1f objects per quiescent Tick (ceiling %.0f)", shards, got, nodeTickAllocCeiling[shards])
		if got > nodeTickAllocCeiling[shards] {
			t.Errorf("%d shard(s): a quiescent Tick allocates %.1f objects, ceiling %.0f", shards, got, nodeTickAllocCeiling[shards])
		}
	}
}

// BenchmarkNodeTick times core.Node.Tick alone — recSA, recMA, joining and
// every shard's step, the envelopes toward both peers, the link's tick — on
// node 1 of a settled, idle three-node cluster. Between two measured ticks
// the cluster runs one period untimed: the packets are delivered, the peers
// take their own steps, the tokens return. That costs two memory-statistics
// reads per iteration, so run it with a fixed count (-benchtime 2000x).
func BenchmarkNodeTick(b *testing.B) {
	for _, shards := range []int{1, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			sched, _, node := settled(b, shards)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				node.Tick()
				b.StopTimer()
				sched.RunUntil(sched.Now() + 10)
				b.StartTimer()
			}
			b.StopTimer()
			if got := tickAllocs(sched, node, 100); got > nodeTickAllocCeiling[shards] {
				b.Fatalf("a quiescent Tick allocates %.1f objects, ceiling %.0f", got, nodeTickAllocCeiling[shards])
			}
		})
	}
}

// BenchmarkNodeReceive times core.Node.Receive alone on the same node: every
// packet a settled node gets in the course of the cluster's periods — the
// peers' DATA, whose envelope goes through recSA, recMA and every shard, and
// the ACKs that return its own tokens, about one for one. The packets of one
// period are held back while it runs untimed and handed over together.
func BenchmarkNodeReceive(b *testing.B) {
	for _, shards := range []int{1, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			sched, p, node := settled(b, shards)
			p.holding = true
			b.ReportAllocs()
			b.ResetTimer()
			b.StopTimer()
			for done := 0; done < b.N; {
				node.Tick()
				sched.RunUntil(sched.Now() + 10)
				if len(p.inbox) == 0 {
					b.Fatal("a period delivered nothing to node 1")
				}
				batch := p.inbox
				p.inbox = nil
				if len(batch) > b.N-done {
					batch = batch[:b.N-done]
				}
				b.StartTimer()
				for _, d := range batch {
					node.Receive(d.from, d.payload)
				}
				b.StopTimer()
				done += len(batch)
			}
			if got := receiveAllocs(sched, p, node, 100); math.Floor(got) > nodeReceiveAllocCeiling {
				b.Fatalf("a Receive allocates %.2f objects, ceiling %d allocs/op", got, nodeReceiveAllocCeiling)
			}
		})
	}
}

// receiveAllocs returns the mean number of objects one Receive of the
// settled, holding node allocates over the packets of the given number of
// the cluster's periods.
func receiveAllocs(sched *sim.Scheduler, p *probe, node *core.Node, periods int) float64 {
	var before, after runtime.MemStats
	total, packets := uint64(0), 0
	for i := 0; i < periods; i++ {
		node.Tick()
		sched.RunUntil(sched.Now() + 10)
		batch := p.inbox
		p.inbox = nil
		runtime.ReadMemStats(&before)
		for _, d := range batch {
			node.Receive(d.from, d.payload)
		}
		runtime.ReadMemStats(&after)
		total += after.Mallocs - before.Mallocs
		packets += len(batch)
	}
	return float64(total) / float64(packets)
}

// BenchmarkClusterSecond times one simulated second (1000 ticks of the
// simulator's clock, about a hundred steps per node) of a whole settled
// cluster on the default adversarial network — every node's steps, every
// delivery, the scheduler — which is what an experiment cell is made of.
// Its sizes run to 32 so that a per-node cost growing faster than the
// paper's per-peer messages shows (EXPERIMENTS.md "Simulator cost").
func BenchmarkClusterSecond(b *testing.B) {
	for _, n := range []int{5, 8, 16, 32} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			opts := core.DefaultClusterOptions(1)
			opts.AppsFactory = func(self ids.ID) []core.App { return shard.New(self, 1, nil).Apps() }
			c, err := core.BootstrapCluster(n, opts)
			if err != nil {
				b.Fatal(err)
			}
			c.RunFor(2000)
			if _, ok := c.ConvergedConfig(); !ok {
				b.Fatal("the cluster did not settle")
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.RunFor(1000)
			}
		})
	}
}
