// Package conformance is the shared behavioral test suite every
// transport backend must pass: registration and tick semantics, lossless
// and fully-lossy delivery, duplication injection, crash stop-failure,
// Inspect serialization, Close idempotence, batched datalink payloads
// crossing intact (for tcp: through the wire codec's batch field), a full
// reconfiguration-stack cluster converging on the backend, a sharded
// register cluster — two service stacks multiplexed over one transport
// with shard-tagged envelopes — completing writes on every shard
// concurrently, and the live write path: receipt-driven steps, the
// spaced writes an idle view starts on arrival, the end-of-slice hook,
// the burst that rides one round, connection-loss hints and the node
// timer's pacing.
//
// Backends invoke Run from their own test files, so `go test ./...`
// exercises the suite against inproc and tcp in one sweep (the CI -race
// run covers their concurrency). Both run on the wall clock: the suite
// sleeps to let them make progress. The simulator is no Transport; it is
// reached through core.Cluster on netsim, and its counts are pinned by
// the seed-42 goldens of internal/experiments.
package conformance

import (
	"fmt"
	"reflect"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/datalink"
	"repro/internal/fd"
	"repro/internal/ids"
	"repro/internal/recsa"
	"repro/internal/regmem"
	"repro/internal/shard"
	"repro/internal/transport"
	"repro/internal/vs"
)

// Backend describes one transport implementation under test.
type Backend struct {
	// Name labels the subtests.
	Name string
	// New builds a fresh transport able to host any of the given node
	// identifiers. The suite closes it.
	New func(t *testing.T, seed int64, opts transport.Options, universe ids.Set) transport.Transport
}

// handler counts events; its fields are only touched from the node's
// execution context (writes by the backend, reads via Inspect).
type handler struct {
	ticks    int
	received int
	lastFrom ids.ID
	lastPay  any
}

func (h *handler) Receive(from ids.ID, payload any) {
	h.received++
	h.lastFrom = from
	h.lastPay = payload
}

func (h *handler) Tick() { h.ticks++ }

// tickStamper notes when each of its ticks began; touched only from the
// node's execution context, like handler.
type tickStamper struct {
	at []time.Time
}

func (s *tickStamper) Receive(ids.ID, any) {}

func (s *tickStamper) Tick() { s.at = append(s.at, time.Now()) }

// packetRecorder keeps every received datalink packet in arrival order;
// touched only from the node's execution context, like handler.
type packetRecorder struct {
	pkts []datalink.Packet
}

func (r *packetRecorder) Receive(from ids.ID, payload any) {
	if pkt, ok := payload.(datalink.Packet); ok {
		r.pkts = append(r.pkts, pkt)
	}
}

func (r *packetRecorder) Tick() {}

// quietOpts is a fault-free configuration for exact-delivery assertions.
func quietOpts() transport.Options {
	return transport.Options{
		Capacity:  64,
		MinDelay:  0,
		MaxDelay:  2 * time.Millisecond,
		TickEvery: time.Millisecond,
	}
}

// await polls cond (outside any node context) every 20 ms until it holds
// or the budget runs out.
func await(budget time.Duration, cond func() bool) bool {
	step := 20 * time.Millisecond
	for spent := time.Duration(0); spent < budget; spent += step {
		if cond() {
			return true
		}
		time.Sleep(step)
	}
	return cond()
}

// inspected reads a value from inside the node's execution context.
func inspected[T any](t *testing.T, net transport.Transport, id ids.ID, read func() T) T {
	t.Helper()
	var out T
	if !net.Inspect(id, func() { out = read() }) {
		t.Fatalf("Inspect(%v) failed", id)
	}
	return out
}

// connectAll links every node to every other and seeds its failure
// detector with them, each inside its own execution context.
func connectAll(t *testing.T, net transport.Transport, nodes map[ids.ID]*core.Node) {
	t.Helper()
	all := ids.Set{}
	for id := range nodes {
		all = all.Add(id)
	}
	// Every node draws its links' session nonces from a source of its own
	// (Transport.Rand at NewNode), so the order changes nothing.
	all.Each(func(id ids.ID) {
		others := all.Remove(id)
		if !net.Inspect(id, func() {
			nodes[id].ConnectAll(others)
			nodes[id].Detector.Bootstrap(others)
		}) {
			t.Fatalf("wiring node %v failed", id)
		}
	})
}

// registerCluster builds one single-shard register node per member on
// medium (the backend, or a decorator of it), wires them and waits until
// each has installed the view of all of them; it returns the view's
// coordinator. eval is the coordinator's reconfiguration predicate (nil:
// never).
func registerCluster(t *testing.T, medium transport.Transport, all ids.Set, eval vs.EvalConf) (map[ids.ID]*core.Node, map[ids.ID]*regmem.SharedMemory, ids.ID) {
	t.Helper()
	nodes, mems, coords := shardedCluster(t, medium, all, eval, 1, datalink.Options{})
	return nodes, mems[0], coords[0]
}

// shardedCluster is registerCluster for nodes that host several register
// shards over links with the given options, every shard bundling up to
// link.MaxBatch commands into a round input. The stacks and the
// coordinators come back by shard.
func shardedCluster(t *testing.T, medium transport.Transport, all ids.Set, eval vs.EvalConf, shards int, link datalink.Options) (map[ids.ID]*core.Node, []map[ids.ID]*regmem.SharedMemory, []ids.ID) {
	t.Helper()
	mems := make([]map[ids.ID]*regmem.SharedMemory, shards)
	for s := range mems {
		mems[s] = make(map[ids.ID]*regmem.SharedMemory)
	}
	nodes := make(map[ids.ID]*core.Node)
	all.Each(func(i ids.ID) {
		apps := make([]core.App, shards)
		for s := range apps {
			mems[s][i] = regmem.New(i, eval)
			mems[s][i].SetMaxBatch(link.MaxBatch)
			apps[s] = mems[s][i]
		}
		node, err := core.NewNode(medium, core.Params{
			Self: i, N: 16, Initial: recsa.ConfigOf(all),
			EvalConf: func(ids.Set, ids.Set) bool { return false },
			Apps:     apps,
			Link:     link,
		})
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = node
	})
	connectAll(t, medium, nodes)
	coords := make([]ids.ID, shards)
	for s := range coords {
		if !awaitView(t, medium, mems[s], all, all, &coords[s]) {
			t.Fatalf("no full view of shard %d on every node", s)
		}
	}
	return nodes, mems, coords
}

// awaitView waits until every node of at has installed the view whose
// members are exactly want, and stores its coordinator.
func awaitView(t *testing.T, net transport.Transport, mems map[ids.ID]*regmem.SharedMemory, at, want ids.Set, coord *ids.ID) bool {
	t.Helper()
	return await(60*time.Second, func() bool {
		for _, i := range at.Members() {
			v := inspected(t, net, i, func() vs.View { v, _ := mems[i].VS().CurrentView(); return v })
			if !v.Valid() || !v.Set.Equal(want) {
				return false
			}
			*coord = v.Coordinator()
		}
		return true
	})
}

// lateStepper crashes its own node (after a peer) from inside Receive and
// then lingers there while a tick falls due and the peer's PeerDown arrives:
// whatever it counts after that, a stopped node did. Touched only from the
// node's execution context.
type lateStepper struct {
	crash        func()
	ticks, downs int
	atCrash      int // ticks when the node was crashed; -1 before
	afterSlice   int // end-of-slice requests that ran
}

func (s *lateStepper) Receive(ids.ID, any) {
	s.crash()
	s.atCrash = s.ticks
}

func (s *lateStepper) Tick() { s.ticks++ }

func (s *lateStepper) PeerDown(ids.ID) { s.downs++ }

// muted loses every packet to and from one node once it is silenced: the
// node is alive and every connection to it stays up, but nobody hears it —
// a partition, a stopped process, a powered-off host.
type muted struct {
	transport.Transport
	victim   ids.ID
	silenced atomic.Bool
}

func (m *muted) Send(from, to ids.ID, payload any) {
	if m.silenced.Load() && (from == m.victim || to == m.victim) {
		return
	}
	m.Transport.Send(from, to, payload)
}

// sliceSpy watches one node's end-of-slice requests from outside: how many
// the medium accepted, and how many receipt-driven steps each of them was
// (steps reads the node's counter). Its fields are touched only from that
// node's execution context.
type sliceSpy struct {
	transport.Transport
	watch    ids.ID
	steps    func() uint64
	accepted int
	rose     []uint64
}

func (s *sliceSpy) AfterSlice(id ids.ID, fn func()) bool {
	if id != s.watch {
		return s.Transport.AfterSlice(id, fn)
	}
	ok := s.Transport.AfterSlice(id, func() {
		before := s.steps()
		fn()
		s.rose = append(s.rose, s.steps()-before)
	})
	if ok {
		s.accepted++
	}
	return ok
}

// sliceLog notes, in order, what ran in its node's execution context.
type sliceLog struct {
	events []string
}

func (l *sliceLog) Receive(ids.ID, any) { l.events = append(l.events, "receive") }

func (l *sliceLog) Tick() { l.events = append(l.events, "tick") }

// evictUntrusted is the reconfiguration predicate noded runs with: replace
// the configuration once it has a member the detector no longer trusts.
func evictUntrusted(cur, trusted ids.Set) bool { return cur.Diff(trusted).Size() > 0 }

// Run executes the conformance suite against the backend.
func Run(t *testing.T, b Backend) {
	universe := ids.Range(1, 8)

	t.Run("TicksAndRegistration", func(t *testing.T) {
		net := b.New(t, 1, quietOpts(), universe)
		defer net.Close()
		ha := &handler{}
		if err := net.AddNode(1, ha); err != nil {
			t.Fatal(err)
		}
		if err := net.AddNode(1, &handler{}); err == nil {
			t.Fatal("duplicate AddNode accepted")
		}
		if !await(5*time.Second, func() bool {
			return inspected(t, net, 1, func() int { return ha.ticks }) >= 5
		}) {
			t.Fatal("node never ticked")
		}
		if !net.Alive().Contains(1) {
			t.Fatal("registered node not alive")
		}
	})

	t.Run("LosslessDelivery", func(t *testing.T) {
		net := b.New(t, 2, quietOpts(), universe)
		defer net.Close()
		src, dst := &handler{}, &handler{}
		if err := net.AddNode(1, src); err != nil {
			t.Fatal(err)
		}
		if err := net.AddNode(2, dst); err != nil {
			t.Fatal(err)
		}
		const k = 20
		for i := 0; i < k; i++ {
			net.Send(1, 2, i)
		}
		if !await(10*time.Second, func() bool {
			return inspected(t, net, 2, func() int { return dst.received }) == k
		}) {
			got := inspected(t, net, 2, func() int { return dst.received })
			t.Fatalf("delivered %d/%d", got, k)
		}
		// No spurious duplication without DupProb.
		time.Sleep(100 * time.Millisecond)
		if got := inspected(t, net, 2, func() int { return dst.received }); got != k {
			t.Fatalf("delivered %d after settling, want exactly %d", got, k)
		}
		from := inspected(t, net, 2, func() ids.ID { return dst.lastFrom })
		if from != 1 {
			t.Fatalf("sender identity %v, want p1", from)
		}
	})

	t.Run("TotalLossDeliversNothing", func(t *testing.T) {
		opts := quietOpts()
		opts.LossProb = 1
		net := b.New(t, 3, opts, universe)
		defer net.Close()
		dst := &handler{}
		if err := net.AddNode(1, &handler{}); err != nil {
			t.Fatal(err)
		}
		if err := net.AddNode(2, dst); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 10; i++ {
			net.Send(1, 2, i)
		}
		time.Sleep(200 * time.Millisecond)
		if got := inspected(t, net, 2, func() int { return dst.received }); got != 0 {
			t.Fatalf("full loss delivered %d packets", got)
		}
	})

	t.Run("DuplicationInjection", func(t *testing.T) {
		opts := quietOpts()
		opts.DupProb = 1
		net := b.New(t, 4, opts, universe)
		defer net.Close()
		dst := &handler{}
		if err := net.AddNode(1, &handler{}); err != nil {
			t.Fatal(err)
		}
		if err := net.AddNode(2, dst); err != nil {
			t.Fatal(err)
		}
		net.Send(1, 2, "once")
		if !await(5*time.Second, func() bool {
			return inspected(t, net, 2, func() int { return dst.received }) >= 2
		}) {
			got := inspected(t, net, 2, func() int { return dst.received })
			t.Fatalf("DupProb=1 delivered %d copies, want >= 2", got)
		}
	})

	t.Run("CrashStopsNode", func(t *testing.T) {
		net := b.New(t, 5, quietOpts(), universe)
		defer net.Close()
		victim := &handler{}
		if err := net.AddNode(1, &handler{}); err != nil {
			t.Fatal(err)
		}
		if err := net.AddNode(2, victim); err != nil {
			t.Fatal(err)
		}
		if !await(5*time.Second, func() bool {
			return inspected(t, net, 2, func() int { return victim.ticks }) > 0
		}) {
			t.Fatal("victim never ticked")
		}
		net.Crash(2)
		if net.Alive().Contains(2) {
			t.Fatal("crashed node still alive")
		}
		if net.Inspect(2, func() {}) {
			t.Fatal("Inspect of crashed node succeeded")
		}
		// Unknown/crashed destinations drop silently.
		net.Send(1, 2, "into the void")
		net.Send(1, 99, "into the void")
		time.Sleep(50 * time.Millisecond)
	})

	t.Run("CloseIdempotent", func(t *testing.T) {
		net := b.New(t, 6, quietOpts(), universe)
		if err := net.AddNode(1, &handler{}); err != nil {
			t.Fatal(err)
		}
		if err := net.Close(); err != nil {
			t.Fatal(err)
		}
		if err := net.Close(); err != nil {
			t.Fatal(err)
		}
		if err := net.AddNode(3, &handler{}); err == nil {
			t.Fatal("AddNode after Close accepted")
		}
	})

	t.Run("BatchedPayloads", func(t *testing.T) {
		// Batched DATA packets (datalink MaxBatch > 1) must cross the
		// backend as one unit: every batch arrives exactly once with its
		// payloads in order — no loss, duplication or reordering across
		// batch boundaries. For tcp this exercises the wire codec's
		// batch field end to end, envelopes (with shard tags) and raw
		// payloads mixed.
		opts := quietOpts()
		net := b.New(t, 9, opts, universe)
		defer net.Close()
		dst := &packetRecorder{}
		if err := net.AddNode(1, &handler{}); err != nil {
			t.Fatal(err)
		}
		if err := net.AddNode(2, dst); err != nil {
			t.Fatal(err)
		}
		const k = 12
		sent := make(map[uint64]datalink.Packet, k+1)
		for i := 0; i < k; i++ {
			pkt := datalink.Packet{
				Kind: datalink.KindData, Session: uint64(i + 1), Seq: uint8(i),
				Batch: []any{
					fmt.Sprintf("b%d-0", i),
					core.Envelope{
						App:       fmt.Sprintf("b%d-1", i),
						ShardApps: []core.ShardApp{{Shard: 1, App: fmt.Sprintf("b%d-s1", i)}},
					},
					fmt.Sprintf("b%d-2", i),
				},
			}
			sent[pkt.Session] = pkt
			net.Send(1, 2, pkt)
		}
		// A single-payload packet shares the stream unharmed.
		single := datalink.Packet{Kind: datalink.KindData, Session: k + 1, Seq: 0, Payload: "single"}
		sent[single.Session] = single
		net.Send(1, 2, single)

		if !await(10*time.Second, func() bool {
			return inspected(t, net, 2, func() int { return len(dst.pkts) }) == len(sent)
		}) {
			got := inspected(t, net, 2, func() int { return len(dst.pkts) })
			t.Fatalf("delivered %d/%d batched packets", got, len(sent))
		}
		// No late duplicates across batch boundaries.
		time.Sleep(100 * time.Millisecond)
		pkts := inspected(t, net, 2, func() []datalink.Packet {
			return append([]datalink.Packet(nil), dst.pkts...)
		})
		if len(pkts) != len(sent) {
			t.Fatalf("delivered %d packets after settling, want exactly %d", len(pkts), len(sent))
		}
		seen := map[uint64]bool{}
		for _, got := range pkts {
			if seen[got.Session] {
				t.Fatalf("batch %d delivered twice", got.Session)
			}
			seen[got.Session] = true
			want, ok := sent[got.Session]
			if !ok {
				t.Fatalf("unknown batch session %d", got.Session)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("batch %d mutated in transit:\n in=%#v\nout=%#v", got.Session, want, got)
			}
		}
	})

	t.Run("FullStackConvergence", func(t *testing.T) {
		// A 3-node reconfiguration stack bootstraps to an agreed
		// configuration under mild faults — the subsystem's reason to
		// exist, demonstrated per backend.
		opts := transport.Options{
			Capacity:   32,
			MinDelay:   0,
			MaxDelay:   2 * time.Millisecond,
			LossProb:   0.05,
			DupProb:    0.02,
			TickEvery:  time.Millisecond,
			TickJitter: time.Millisecond,
		}
		net := b.New(t, 7, opts, universe)
		defer net.Close()
		all := ids.Range(1, 3)
		nodes := make(map[ids.ID]*core.Node)
		for i := ids.ID(1); i <= 3; i++ {
			n, err := core.NewNode(net, core.Params{
				Self: i, N: 16, Initial: recsa.ConfigOf(all),
			})
			if err != nil {
				t.Fatal(err)
			}
			nodes[i] = n
		}
		connectAll(t, net, nodes)
		converged := func() bool {
			for i := ids.ID(1); i <= 3; i++ {
				ok := inspected(t, net, i, func() bool {
					q, has := nodes[i].Quorum()
					return has && q.Equal(all) && nodes[i].NoReco()
				})
				if !ok {
					return false
				}
			}
			return true
		}
		if !await(60*time.Second, converged) {
			t.Fatal("full stack never converged on this backend")
		}
	})

	t.Run("ReceiptDrivenWrites", func(t *testing.T) {
		// The live write path: a 3-node single-shard register cluster, a
		// depth-1 write loop at a follower and then at the coordinator.
		// A delivery may trigger a step, so only the coordinator's tick that
		// starts the round is left of a commit: inputs and echoes travel
		// after it, and the round's last echo completes it at once, in one
		// receipt-driven step of the coordinator; the notice that step
		// assembles carries the delivery to the followers and completes on
		// the next tick, with the next write's round. A loop's first write
		// finds the view idle, and its input starts the round on arrival
		// (the fast start): one more step, and one round without a tick.
		// Around the loop the cluster sits idle, and an idle cluster takes
		// no receipt-driven step and starts no cycle off the timer — one
		// token per link per tick.
		const n = 3
		// A tick long enough that what happens between two ticks fits into
		// it many times over even under the race detector: the comparison
		// is between a commit and a tick, whatever the tick.
		opts := transport.Options{
			Capacity:   64,
			TickEvery:  10 * time.Millisecond,
			TickJitter: 5 * time.Millisecond,
		}
		net := b.New(t, 12, opts, universe)
		defer net.Close()
		all := ids.Range(1, n)
		nodes, mems, coord := registerCluster(t, net, all, nil)
		follower := all.Remove(coord).Members()[0]

		// idle lets the cluster sit for a while and checks, per node, how
		// many cycles completed in how many timer ticks, and that there was
		// no receipt-driven step and no kicked cycle.
		type counts struct{ ticks, cycles, steps, kicked uint64 }
		read := func(i ids.ID) counts {
			st := nodes[i].Endpoint.Stats()
			return counts{nodes[i].Ticks(), st.CyclesDone, nodes[i].ReceiptSteps(), st.KickedCycles}
		}
		idle := func(when string) {
			time.Sleep(100 * time.Millisecond) // let the last commit's rounds drain
			before := map[ids.ID]counts{}
			for i := ids.ID(1); i <= n; i++ {
				before[i] = read(i)
			}
			time.Sleep(400 * time.Millisecond)
			for i := ids.ID(1); i <= n; i++ {
				a, z := before[i], read(i)
				ticks, cycles := z.ticks-a.ticks, z.cycles-a.cycles
				if ticks < 10 {
					t.Fatalf("%s: node %v ticked only %d times", when, i, ticks)
				}
				// Two links per node, one cycle per link per tick; the
				// slack covers a cycle straddling either edge of the window.
				if cycles > 2*ticks+4 {
					t.Errorf("%s: node %v completed %d cycles in %d ticks, want at most one per link per tick", when, i, cycles, ticks)
				}
				if z.steps != a.steps || z.kicked != a.kicked {
					t.Errorf("%s: idle node %v took %d receipt-driven steps and started %d cycles off the timer",
						when, i, z.steps-a.steps, z.kicked-a.kicked)
				}
			}
		}
		idle("before the writes")

		// loop writes depth-1 at one node and returns how many times the
		// coordinator's timer fired meanwhile.
		const commits = 100
		loop := func(at ids.ID) uint64 {
			start := nodes[coord].Ticks()
			for c := 0; c < commits; c++ {
				var hnd *regmem.Handle
				if !net.Inspect(at, func() { hnd = mems[at].Write("r", fmt.Sprintf("%v-%d", at, c)) }) {
					t.Fatalf("Inspect(%v) failed", at)
				}
				for waited := time.Duration(0); !hnd.Done(); waited += 100 * time.Microsecond {
					if waited > 30*time.Second {
						t.Fatalf("write %d at %v never completed", c, at)
					}
					time.Sleep(100 * time.Microsecond)
				}
				for i := ids.ID(1); i <= n; i++ {
					if tr := inspected(t, net, i, func() ids.Set { return nodes[i].Trusted() }); !tr.Equal(all) {
						t.Fatalf("after write %d at %v, node %v trusts %v", c, at, i, tr)
					}
				}
			}
			return nodes[coord].Ticks() - start
		}
		// The boot's view change steps on receipt at every node; from here
		// on the coordinator's rounds are the view's clock.
		kicked := func() (sum uint64) {
			for i := ids.ID(1); i <= n; i++ {
				sum += read(i).kicked
			}
			return sum
		}
		coordSteps, coordTicks := nodes[coord].ReceiptSteps(), nodes[coord].Ticks()
		echoRounds, kicks := mems[coord].VS().Metrics().EchoRounds, kicked()
		atFollower := loop(follower)
		atCoord := loop(coord)
		coordTicks = nodes[coord].Ticks() - coordTicks
		echoRounds = mems[coord].VS().Metrics().EchoRounds - echoRounds
		kicks = kicked() - kicks
		steps := nodes[coord].ReceiptSteps() - coordSteps
		links := uint64(n * (n - 1))
		t.Logf("%d commits cost coordinator %v %d ticks written at follower %v and %d written at the coordinator; it completed %d rounds on an echo in %d receipt-driven steps; the %d links kicked %.2f cycles each per coordinator tick",
			commits, coord, atFollower, follower, atCoord, echoRounds, steps, links, float64(kicks)/float64(links)/float64(coordTicks))
		// One tick a commit, and slack for a commit that straddles a second.
		if most := uint64(commits * 5 / 4); atFollower > most || atCoord > most {
			t.Errorf("a live medium pays more than the coordinator's one tick per commit: %d commits cost the coordinator %d ticks written at the follower, %d written at the coordinator",
				commits, atFollower, atCoord)
		}
		// The followers stepped on receipt; the coordinator at most once a
		// commit, on the round's last echo, plus one fast start a loop, and
		// never more than once a tick beyond those: the round the echo step
		// starts is a notice, which waits for the timer, and a closed loop's
		// next input beats the tick.
		if s := nodes[follower].ReceiptSteps(); s == 0 {
			t.Errorf("follower %v took no receipt-driven step", follower)
		}
		if steps > 2*commits+2 {
			t.Errorf("coordinator %v took %d receipt-driven steps for %d commits, want at most one a commit and one fast start a loop", coord, steps, 2*commits)
		}
		if echoRounds > coordTicks+2 {
			t.Errorf("coordinator %v completed %d rounds on an echo in %d ticks, want at most one a tick and one fast start a loop", coord, echoRounds, coordTicks)
		}
		// The token-rate bound (DESIGN.md §17): the coordinator's record
		// moves at most twice per interval on receipt, so a link carries at
		// most four kicked cycles per coordinator tick.
		if kicks > 4*links*coordTicks {
			t.Errorf("the %d links kicked %d cycles in %d coordinator ticks, want at most 4 per link per tick", links, kicks, coordTicks)
		}
		idle("after the writes")
	})

	t.Run("SpacedWritesStartOnArrival", func(t *testing.T) {
		// Light open-loop load: writes at a follower spaced at least three
		// coordinator ticks apart, so each finds the view idle — the tick
		// before it assembled an empty round and nothing else started one.
		// The coordinator then starts the write's round when the input
		// arrives (the fast start), not on its next tick, and the round's
		// last echo completes it. Counted in the coordinator's ticks, a
		// write waits none unless a tick falls while its round travels; a
		// coordinator that started loaded rounds on its ticks only would
		// make every write wait at least one.
		const n, writes = 3, 20
		opts := transport.Options{
			Capacity:   64,
			TickEvery:  10 * time.Millisecond,
			TickJitter: 5 * time.Millisecond,
		}
		net := b.New(t, 14, opts, universe)
		defer net.Close()
		all := ids.Range(1, n)
		nodes, mems, coord := registerCluster(t, net, all, nil)
		follower := all.Remove(coord).Members()[0]
		var waited uint64
		for c := 0; c < writes; c++ {
			if from := nodes[coord].Ticks(); !await(10*time.Second, func() bool { return nodes[coord].Ticks() >= from+3 }) {
				t.Fatalf("coordinator %v stopped ticking", coord)
			}
			var hnd *regmem.Handle
			var start uint64
			if !net.Inspect(follower, func() {
				start = nodes[coord].Ticks()
				hnd = mems[follower].Write("r", fmt.Sprintf("spaced-%d", c))
			}) {
				t.Fatalf("Inspect(%v) failed", follower)
			}
			for polled := time.Duration(0); !hnd.Done(); polled += 100 * time.Microsecond {
				if polled > 30*time.Second {
					t.Fatalf("write %d at %v never completed", c, follower)
				}
				time.Sleep(100 * time.Microsecond)
			}
			waited += nodes[coord].Ticks() - start
		}
		t.Logf("%d spaced writes at follower %v waited %d ticks of coordinator %v in all (%.2f a write)",
			writes, follower, waited, coord, float64(waited)/writes)
		if 2*waited > writes {
			t.Errorf("%d spaced writes waited %d coordinator ticks, want at most half a tick a write: the idle view waited for its tick to start a round", writes, waited)
		}
	})

	t.Run("EndOfSlice", func(t *testing.T) {
		// The hook the one-step-per-burst rule stands on
		// (Transport.AfterSlice): what a slice asks for runs when that slice
		// ends, before the tick that fell due meanwhile and before the
		// deliveries queued behind it; a node holds one request at a time; a
		// request from outside wakes a parked node; a stopped or unknown node
		// accepts none.
		opts := transport.Options{Capacity: 64, TickEvery: time.Millisecond}
		net := b.New(t, 17, opts, universe)
		defer net.Close()
		log := &sliceLog{}
		if err := net.AddNode(1, log); err != nil {
			t.Fatal(err)
		}
		if err := net.AddNode(2, &handler{}); err != nil {
			t.Fatal(err)
		}
		note := func(what string) func() { return func() { log.events = append(log.events, what) } }
		const queued = 9
		var first, second bool
		var start int
		if !net.Inspect(1, func() {
			first = net.AfterSlice(1, note("first"))
			second = net.AfterSlice(1, note("second"))
			start = len(log.events)
			for i := 0; i < queued; i++ {
				net.Send(2, 1, i)
			}
			time.Sleep(20 * opts.TickEvery) // the deliveries are queued and a tick is overdue
		}) {
			t.Fatal("Inspect(1) failed")
		}
		received := func(events []string) (n int) {
			for _, e := range events {
				if e == "receive" {
					n++
				}
			}
			return n
		}
		if !await(10*time.Second, func() bool {
			return inspected(t, net, 1, func() int { return received(log.events[start:]) }) == queued
		}) {
			t.Fatal("the queued deliveries never arrived")
		}
		after := inspected(t, net, 1, func() []string { return append([]string(nil), log.events[start:]...) })
		if net.AfterSlice(99, func() {}) {
			t.Error("a node nobody registered accepted an end-of-slice request")
		}
		if !first || second {
			t.Errorf("two requests in one slice were answered %v and %v, want the first accepted and the second refused", first, second)
		}
		if after[0] != "first" {
			t.Errorf("the slice was followed by %q, want what it asked for: %v", after[0], after)
		}
		for _, e := range after[1:] {
			if e == "first" || e == "second" {
				t.Errorf("%q ran after the slice's one request had run: %v", e, after)
			}
		}

		// A parked node: its timer is an hour away and nothing is sent to it.
		parked := b.New(t, 18, transport.Options{Capacity: 64, TickEvery: time.Hour}, universe)
		defer parked.Close()
		if err := parked.AddNode(1, &handler{}); err != nil {
			t.Fatal(err)
		}
		woke := make(chan struct{})
		if !parked.AfterSlice(1, func() { close(woke) }) {
			t.Fatal("a parked node refused an end-of-slice request")
		}
		select {
		case <-woke:
		case <-time.After(10 * time.Second):
			t.Fatal("a request from outside did not wake the parked node")
		}
		parked.Crash(1)
		if parked.AfterSlice(1, func() { t.Error("an end-of-slice request ran on a crashed node") }) {
			t.Error("a crashed node accepted an end-of-slice request")
		}
	})

	t.Run("BurstRidesOneRound", func(t *testing.T) {
		// The pipeline shape: 3 nodes, 4 register shards, batch 16, window 4,
		// and one Inspect closure at a follower that submits 16 writes to
		// every shard. On a live medium the burst gets one step, when its
		// slice ends, and that step sees all of it: every shard's 16 commands
		// travel as one round input, which the coordinator's next tick puts
		// in a round and that round's last echo completes, so they are
		// delivered in one round within two ticks of each coordinator (one
		// if the input beat the tick). (Stepping on the first command of a
		// shard instead fetched a batch of one or two and left the rest for
		// the round after.) Only the coordinators' ticks are counted: theirs
		// are the view's clock, and the submitting node's own timer has no
		// part in a write. The medium is seen through a decorator that knows
		// nothing of the hook, as the benchmark's traced pass sees it.
		const shards, batch, window, bursts = 4, 16, 4, 5
		opts := transport.Options{
			Capacity:   64,
			TickEvery:  10 * time.Millisecond,
			TickJitter: 5 * time.Millisecond,
		}
		net := b.New(t, 19, opts, universe)
		defer net.Close()
		all := ids.Range(1, 3)
		spy := &sliceSpy{Transport: net}
		nodes, mems, coords := shardedCluster(t, &muted{Transport: spy}, all, nil,
			shards, datalink.Options{MaxBatch: batch, Window: window})
		at := all.Remove(coords[0]).Members()[0]
		time.Sleep(100 * time.Millisecond) // the view installs have drained
		net.Inspect(at, func() { spy.watch, spy.steps = at, nodes[at].ReceiptSteps })

		var cost uint64 // ticks of the submitting node, submission to last completion
		for burst := 0; burst < bursts; burst++ {
			before := map[ids.ID]uint64{}
			for i, n := range nodes {
				before[i] = n.Ticks()
			}
			var handles []*regmem.Handle
			var inSlice uint64
			if !net.Inspect(at, func() {
				spy.accepted, spy.rose = 0, nil
				stepsBefore := nodes[at].ReceiptSteps()
				for c := 0; c < batch; c++ {
					for s := 0; s < shards; s++ {
						handles = append(handles, mems[s][at].Write(fmt.Sprintf("r%d", c), fmt.Sprint(burst)))
					}
				}
				inSlice = nodes[at].ReceiptSteps() - stepsBefore
			}) {
				t.Fatalf("Inspect(%v) failed", at)
			}
			for waited := time.Duration(0); ; waited += 100 * time.Microsecond {
				done := 0
				for _, hnd := range handles {
					if hnd.Done() {
						done++
					}
				}
				if done == len(handles) {
					break
				}
				if waited > 30*time.Second {
					t.Fatalf("burst %d: %d of %d writes completed", burst, done, len(handles))
				}
				time.Sleep(100 * time.Microsecond)
			}
			cost += nodes[at].Ticks() - before[at]
			if inSlice != 0 {
				t.Errorf("burst %d: %d receipt-driven steps ran inside the submitting slice, want one step at its end", burst, inSlice)
			}
			accepted := inspected(t, net, at, func() int { return spy.accepted })
			rose := inspected(t, net, at, func() []uint64 { return spy.rose })
			if accepted != 1 || len(rose) != 1 || rose[0] == 0 || rose[0] > shards {
				t.Errorf("burst %d made %d end-of-slice requests that ran as %v app steps, want one request and at most one step per shard", burst, accepted, rose)
			}
			for _, c := range ids.NewSet(coords...).Members() {
				if took := nodes[c].Ticks() - before[c]; took > 2 {
					t.Errorf("burst %d: coordinator %v ticked %d times before it completed, want two at most", burst, c, took)
				}
			}
		}

		// How the commands travelled: the rounds in which each shard
		// delivered each burst (a write's value is its burst).
		for s := 0; s < shards; s++ {
			rounds := inspected(t, net, at, func() map[string]map[uint64]int {
				out := map[string]map[uint64]int{}
				for _, a := range mems[s][at].SMR().Log() {
					if w, ok := a.Cmd.(regmem.WriteCmd); ok && a.Member == at {
						if out[w.Value] == nil {
							out[w.Value] = map[uint64]int{}
						}
						out[w.Value][a.Rnd]++
					}
				}
				return out
			})
			for burst, in := range rounds {
				if len(in) != 1 {
					t.Errorf("shard %d delivered the %d commands of burst %s over rounds %v, want all of them in one", s, batch, burst, in)
				}
			}
			if len(rounds) != bursts {
				t.Errorf("shard %d delivered %d bursts, want %d", s, len(rounds), bursts)
			}
		}
		t.Logf("%d bursts of %d writes at node %v (coordinators %v) cost it %d ticks", bursts, shards*batch, at, coords, cost)
	})

	t.Run("StoppedNodeTakesNoStep", func(t *testing.T) {
		// A node crashed while one of its steps runs takes no further step:
		// not the tick that fell due meanwhile, not the hint about a peer
		// that reached its inbox meanwhile, not what that very step asked to
		// have run when it ends.
		opts := quietOpts()
		net := b.New(t, 14, opts, universe)
		defer net.Close()
		subject, peer := &lateStepper{atCrash: -1}, &handler{}
		subject.crash = func() {
			net.AfterSlice(1, func() { subject.afterSlice++ })
			net.Crash(2)
			time.Sleep(20 * opts.TickEvery) // the hint about 2 is in the inbox
			net.Crash(1)
			time.Sleep(5 * opts.TickEvery) // and a tick is overdue
		}
		if err := net.AddNode(1, subject); err != nil {
			t.Fatal(err)
		}
		if err := net.AddNode(2, peer); err != nil {
			t.Fatal(err)
		}
		// 1 reaches 2 first: only a link that was up can report a loss.
		net.Send(1, 2, "hello")
		if !await(10*time.Second, func() bool {
			return inspected(t, net, 2, func() int { return peer.received }) == 1
		}) {
			t.Fatal("1 never reached 2")
		}
		net.Send(2, 1, "crash yourself")
		if !await(10*time.Second, func() bool { return !net.Alive().Contains(1) }) {
			t.Fatal("the subject never crashed itself")
		}
		time.Sleep(20 * opts.TickEvery)
		net.Close() // no step after this: the handler may be read
		if subject.atCrash < 0 {
			t.Fatal("Receive never returned")
		}
		if subject.ticks != subject.atCrash {
			t.Errorf("%d ticks ran after the node was crashed", subject.ticks-subject.atCrash)
		}
		if subject.downs != 0 {
			t.Errorf("%d PeerDown calls ran after the node was crashed", subject.downs)
		}
		if subject.afterSlice != 0 {
			t.Errorf("%d end-of-slice requests ran after the node was crashed", subject.afterSlice)
		}
		if net.AfterSlice(1, func() { t.Error("an end-of-slice request ran on a closed medium") }) {
			t.Error("a closed medium accepted an end-of-slice request")
		}
	})

	// hintOpts: a tick long enough that "within ten ticks" is about the
	// medium and not about the race detector's slowdown.
	hintOpts := transport.Options{
		Capacity:   64,
		TickEvery:  10 * time.Millisecond,
		TickJitter: 5 * time.Millisecond,
	}
	gap := fd.DefaultOptions(16)
	gapCount := uint64(gap.GapFactor) * gap.GapFloor

	t.Run("CrashHint", func(t *testing.T) {
		// A 3-node register cluster loses a member the way a process dies.
		// A connection-oriented medium tells the survivors (inproc: the
		// crash itself; tcp: the connection broke and the redial was
		// refused) and their detectors suspect it within a few ticks. The
		// configuration is then replaced and a write commits in the
		// two-member view.
		net := b.New(t, 15, hintOpts, universe)
		defer net.Close()
		all := ids.Range(1, 3)
		nodes, mems, coord := registerCluster(t, net, all, evictUntrusted)
		victim := all.Remove(coord).Members()[1]
		rest := all.Remove(victim)
		watcher := rest.Members()[0]

		before := nodes[watcher].Ticks()
		net.Crash(victim)
		if !await(60*time.Second, func() bool {
			for _, i := range rest.Members() {
				if inspected(t, net, i, func() bool { return nodes[i].Trusted().Contains(victim) }) {
					return false
				}
			}
			return true
		}) {
			t.Fatal("the survivors never suspected the crashed node")
		}
		took := nodes[watcher].Ticks() - before
		t.Logf("survivors suspected %v within %d ticks of node %v", victim, took, watcher)
		for _, i := range rest.Members() {
			count := inspected(t, net, i, func() uint64 { c, _ := nodes[i].Detector.Count(victim); return c })
			if hints := nodes[i].PeerDowns(); hints != 1 || count != gap.MaxCount {
				t.Errorf("node %v: %d hints and count %d for the crashed node, want one hint and the cap", i, hints, count)
			}
		}
		if took > 10 {
			t.Errorf("a connection-oriented medium took %d ticks to have a crashed peer suspected, want at most 10", took)
		}

		if !awaitView(t, net, mems, rest, rest, &coord) {
			t.Fatal("the survivors never installed their two-member view")
		}
		var hnd *regmem.Handle
		if !net.Inspect(watcher, func() { hnd = mems[watcher].Write("r", "after the crash") }) {
			t.Fatalf("Inspect(%v) failed", watcher)
		}
		if !await(60*time.Second, hnd.Done) {
			t.Fatal("no write committed in the new view")
		}
	})

	t.Run("ViewChangeOnEcho", func(t *testing.T) {
		// A 3-node register cluster loses a member under a write loop at a
		// survivor, once a follower and once the coordinator. The hint starts
		// the view change at once, and every phase of it that waits for an
		// echo — the suspend, the counter increment's two quorum phases,
		// Propose, Install, the suspend before estab() — moves when the echo
		// arrives instead of on the next tick (DESIGN.md §17). What is left
		// on the timer is recSA's unison and the write's own tick, so
		// the first commit in the two-member view comes well inside the
		// ≈ 16 ticks a timer-paced view change takes. A view change is a
		// bounded number of phase transitions, so the cycles it kicks stay a
		// few per link per tick.
		const (
			mostTicks = 12 // crash to first commit in the two-member view
			mostKicks = 2  // kicked cycles per link per tick, meanwhile
			patience  = 4  // ticks a write waits before another is submitted
		)
		arm := func(t *testing.T, seed int64, killCoord bool) {
			net := b.New(t, seed, hintOpts, universe)
			defer net.Close()
			all := ids.Range(1, 3)
			nodes, mems, coord := registerCluster(t, net, all, evictUntrusted)
			victim := coord
			if !killCoord {
				victim = all.Remove(coord).Members()[1]
			}
			rest := all.Remove(victim)
			at := rest.Remove(coord).Members()[0]

			// A depth-1 write loop at a survivor. A write still unanswered
			// after a few ticks gets a successor (one submitted around a view
			// change may be dropped with its round: ROADMAP item 2c), which
			// only matters during the change: a commit takes one tick.
			stop := make(chan struct{})
			looped := make(chan struct{})
			go func() {
				defer close(looped)
				for c := 0; ; c++ {
					var hnd *regmem.Handle
					if !net.Inspect(at, func() { hnd = mems[at].Write("r", fmt.Sprint(c)) }) {
						return
					}
					for start := nodes[at].Ticks(); !hnd.Done() && nodes[at].Ticks()-start < patience; {
						select {
						case <-stop:
							return
						case <-time.After(100 * time.Microsecond):
						}
					}
				}
			}()
			defer func() { close(stop); <-looped }()
			time.Sleep(100 * time.Millisecond) // the loop is committing

			type counts struct{ ticks, kicked uint64 }
			read := func() map[ids.ID]counts {
				out := map[ids.ID]counts{}
				for _, i := range rest.Members() {
					out[i] = counts{nodes[i].Ticks(), nodes[i].Endpoint.Stats().KickedCycles}
				}
				return out
			}
			before := read()
			net.Crash(victim)
			committed := func() bool {
				return inspected(t, net, at, func() bool {
					log := mems[at].SMR().Log()
					return len(log) > 0 && log[len(log)-1].View.Set.Equal(rest)
				})
			}
			for waited := time.Duration(0); !committed(); waited += time.Millisecond {
				if waited > 60*time.Second {
					t.Fatal("no write committed in the two-member view")
				}
				time.Sleep(time.Millisecond)
			}
			after := read()
			took := after[at].ticks - before[at].ticks
			t.Logf("killed %v (coordinator %v): first commit in the view %v at %v after %d of its ticks", victim, coord, rest, at, took)
			if took > mostTicks {
				t.Errorf("the first commit in the two-member view took %d ticks of %v after the kill, want at most %d", took, at, mostTicks)
			}
			for _, i := range rest.Members() {
				ticks, kicked := after[i].ticks-before[i].ticks, after[i].kicked-before[i].kicked
				t.Logf("node %v kicked %d cycles in %d ticks", i, kicked, ticks)
				// Two links, the dead one included; the slack covers a tick
				// straddling either edge of the window.
				if kicked > 2*mostKicks*(ticks+1) {
					t.Errorf("node %v kicked %d cycles in %d ticks of the view change, want at most %d per link per tick", i, kicked, ticks, mostKicks)
				}
			}
		}
		t.Run("Follower", func(t *testing.T) { arm(t, 20, false) })
		t.Run("Coordinator", func(t *testing.T) { arm(t, 21, true) })
	})

	t.Run("SilentFailure", func(t *testing.T) {
		// The same cluster loses a member the quiet way: the node lives and
		// its connections stay up, but every packet to and from it is lost.
		// No medium has anything to report, so on every backend the
		// survivors suspect it only once its count has passed the gap.
		all := ids.Range(1, 3)
		net := b.New(t, 16, hintOpts, universe)
		defer net.Close()
		medium := &muted{Transport: net}
		nodes, _, coord := registerCluster(t, medium, all, evictUntrusted)
		medium.victim = all.Remove(coord).Members()[1]
		rest := all.Remove(medium.victim)
		medium.silenced.Store(true)
		for _, i := range rest.Members() {
			var count uint64
			if !await(60*time.Second, func() bool {
				return inspected(t, net, i, func() bool {
					count, _ = nodes[i].Detector.Count(medium.victim)
					return !nodes[i].Trusted().Contains(medium.victim)
				})
			}) {
				t.Fatalf("node %v never suspected the silent node", i)
			}
			if hints := nodes[i].PeerDowns(); hints != 0 || count <= gapCount || count >= gap.MaxCount {
				t.Errorf("node %v suspected a silent node on %d hints at count %d, want no hint and a count past the gap of %d",
					i, hints, count, gapCount)
			}
		}
	})

	t.Run("TickPacing", func(t *testing.T) {
		// A live node's timer keeps the period it was given: due times
		// accumulate and the wait for one is good to a fraction of a
		// millisecond, so a 2.5 ms tick lasts 2.5 ms and not the 3.2 that
		// re-arming a runtime timer after every tick makes of it — and no
		// tick starts sooner than the period after the one before.
		if testing.Short() {
			t.Skip("measures wall time")
		}
		const every, ticks = 2500 * time.Microsecond, 400
		opts := transport.Options{Capacity: 64, TickEvery: every}
		var median time.Duration
		for attempt := 1; attempt <= 3; attempt++ {
			net := b.New(t, 13, opts, universe)
			st := &tickStamper{at: make([]time.Time, 0, 2*ticks)}
			if err := net.AddNode(1, st); err != nil {
				t.Fatal(err)
			}
			if !await(30*time.Second, func() bool {
				return inspected(t, net, 1, func() int { return len(st.at) }) > ticks
			}) {
				t.Fatal("node stopped ticking")
			}
			net.Close() // no step after this: the stamps may be read
			gaps := make([]time.Duration, 0, len(st.at))
			for k := 1; k < len(st.at); k++ {
				gap := st.at[k].Sub(st.at[k-1])
				if gap < every {
					t.Fatalf("tick %d began %v after the one before, sooner than the %v period", k, gap, every)
				}
				gaps = append(gaps, gap)
			}
			sort.Slice(gaps, func(i, j int) bool { return gaps[i] < gaps[j] })
			median = gaps[len(gaps)/2]
			t.Logf("attempt %d: %d ticks at a %v period: median gap %v, p95 %v", attempt, len(gaps), every, median, gaps[len(gaps)*95/100])
			// The median, and a bound halfway to what rounding up to whole
			// milliseconds would give: a busy runner can delay any one tick,
			// not half of them three times in a row.
			if median <= 2900*time.Microsecond {
				return
			}
		}
		t.Fatalf("median tick period %v at a nominal %v, want at most 2.9ms", median, every)
	})

	t.Run("ShardedServiceStacks", func(t *testing.T) {
		// Two register shards multiplexed over one transport: each node
		// hosts two vs/smr/regmem stacks on a singleton reconfiguration
		// layer, envelopes carry shard-tagged payloads (for tcp, through
		// the wire codec's version-2 shard field), and writes routed to
		// both shards complete concurrently and replicate to every node.
		const n, shards = 3, 2
		opts := transport.Options{
			Capacity:   32,
			MaxDelay:   2 * time.Millisecond,
			TickEvery:  time.Millisecond,
			TickJitter: time.Millisecond,
		}
		net := b.New(t, 8, opts, universe)
		defer net.Close()
		all := ids.Range(1, n)
		maps := make(map[ids.ID]*shard.Map)
		nodes := make(map[ids.ID]*core.Node)
		for i := ids.ID(1); i <= n; i++ {
			m := shard.New(i, shards, nil)
			maps[i] = m
			node, err := core.NewNode(net, core.Params{
				Self: i, N: 16, Initial: recsa.ConfigOf(all),
				EvalConf: func(ids.Set, ids.Set) bool { return false },
				Apps:     m.Apps(),
			})
			if err != nil {
				t.Fatal(err)
			}
			nodes[i] = node
		}
		connectAll(t, net, nodes)
		// Every shard of every node installs a view.
		if !await(60*time.Second, func() bool {
			for i := ids.ID(1); i <= n; i++ {
				ok := inspected(t, net, i, func() bool {
					for s := 0; s < shards; s++ {
						mem, err := maps[i].Mem(s)
						if err != nil {
							return false
						}
						if _, has := mem.VS().CurrentView(); !has {
							return false
						}
					}
					return true
				})
				if !ok {
					return false
				}
			}
			return true
		}) {
			t.Fatal("not every shard installed a view on this backend")
		}
		// One register per shard, written concurrently through node 1's
		// router.
		perShard := shard.NamesPerShard(shards, 1)
		names := make([]string, shards)
		for s, group := range perShard {
			names[s] = group[0]
		}
		handles := make([]*regmem.Handle, shards)
		if !net.Inspect(1, func() {
			for s, name := range names {
				hnd, got := maps[1].Write(name, fmt.Sprintf("v%d", s))
				if got != s {
					t.Errorf("write %q routed to shard %d, want %d", name, got, s)
				}
				handles[s] = hnd
			}
		}) {
			t.Fatal("Inspect(1) failed")
		}
		if !await(60*time.Second, func() bool {
			return inspected(t, net, 1, func() bool {
				for _, hnd := range handles {
					if !hnd.Done() {
						return false
					}
				}
				return true
			})
		}) {
			t.Fatal("cross-shard writes never completed")
		}
		// Both registers are readable on every node through the router.
		if !await(60*time.Second, func() bool {
			for i := ids.ID(1); i <= n; i++ {
				ok := inspected(t, net, i, func() bool {
					for s, name := range names {
						if v, _ := maps[i].Read(name); v != fmt.Sprintf("v%d", s) {
							return false
						}
					}
					return true
				})
				if !ok {
					return false
				}
			}
			return true
		}) {
			t.Fatal("cross-shard writes not visible on every node")
		}
	})

	t.Run("SharedSnapshot", func(t *testing.T) {
		// One step publishes one replica record, one recMA message and one
		// gossip payload, and every peer's envelope carries those same
		// objects (DESIGN.md §3, "What a step may cache"). inproc hands a
		// payload over by reference, so the sender's outbox and two
		// receivers — each on its own goroutine — then hold one
		// record, and each receiver stores it without a copy. Writes at
		// every node at once keep every round loaded, so all that reads a
		// stored record runs (follow, adopt, the rounds handed to the
		// application); nothing may write through it. Under -race the
		// detector is the check on inproc; on every backend the registers
		// must come out the same everywhere.
		const n, rounds = 3, 25
		opts := transport.Options{
			Capacity:   32,
			MaxDelay:   time.Millisecond,
			TickEvery:  time.Millisecond,
			TickJitter: time.Millisecond,
		}
		net := b.New(t, 17, opts, universe)
		defer net.Close()
		all := ids.Range(1, n)
		_, mems, _ := registerCluster(t, net, all, nil)
		for r := 0; r < rounds; r++ {
			handles := make(map[ids.ID]*regmem.Handle)
			all.Each(func(i ids.ID) {
				if !net.Inspect(i, func() {
					handles[i] = mems[i].Write(fmt.Sprintf("r%v", i), fmt.Sprintf("%v-%d", i, r))
				}) {
					t.Fatalf("Inspect(%v) failed", i)
				}
			})
			if !await(60*time.Second, func() bool {
				for _, hnd := range handles {
					if !hnd.Done() {
						return false
					}
				}
				return true
			}) {
				t.Fatalf("round %d of concurrent writes never completed", r)
			}
		}
		if !await(60*time.Second, func() bool {
			for _, at := range all.Members() {
				for _, of := range all.Members() {
					v := inspected(t, net, at, func() string { v, _ := mems[at].Read(fmt.Sprintf("r%v", of)); return v })
					if v != fmt.Sprintf("%v-%d", of, rounds-1) {
						return false
					}
				}
			}
			return true
		}) {
			t.Fatal("the last writes are not visible on every node")
		}
	})
}
