package datalink

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/ids"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// harness wires two (or more) endpoints over a netsim network.
type harness struct {
	sched *sim.Scheduler
	net   *netsim.Network
	eps   map[ids.ID]*Endpoint
	// per endpoint, messages delivered and heartbeats observed
	delivered  map[ids.ID][]any
	heartbeats map[ids.ID]int
	// outgoing message source per endpoint
	next map[ids.ID]func(to ids.ID) any
}

type epHandler struct {
	h  *harness
	id ids.ID
}

func (e *epHandler) Receive(from ids.ID, payload any) {
	if pkt, ok := payload.(Packet); ok {
		e.h.eps[e.id].HandlePacket(from, pkt)
	}
}

func (e *epHandler) Tick() { e.h.eps[e.id].Tick() }

func newTestRng(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func newHarness(t *testing.T, n int, netOpts netsim.Options, linkOpts Options) *harness {
	return newSeededHarness(t, n, 11, netOpts, linkOpts)
}

func newSeededHarness(t *testing.T, n int, seed int64, netOpts netsim.Options, linkOpts Options) *harness {
	t.Helper()
	sched := sim.NewScheduler(seed)
	h := &harness{
		sched:      sched,
		net:        netsim.New(sched, netOpts),
		eps:        make(map[ids.ID]*Endpoint),
		delivered:  make(map[ids.ID][]any),
		heartbeats: make(map[ids.ID]int),
		next:       make(map[ids.ID]func(ids.ID) any),
	}
	for i := 1; i <= n; i++ {
		id := ids.ID(i)
		h.next[id] = func(ids.ID) any { return nil }
		ep := NewEndpoint(Config{
			Self: id,
			Opts: linkOpts,
			Rand: sched.Rand(),
			Send: func(to ids.ID, pkt Packet) { h.net.Send(id, to, pkt) },
			Deliver: func(from ids.ID, msg any) {
				h.delivered[id] = append(h.delivered[id], msg)
			},
			Heartbeat: func(peer ids.ID) { h.heartbeats[id]++ },
			Source:    func(to ids.ID) any { return h.next[id](to) },
		})
		h.eps[id] = ep
		if err := h.net.AddNode(id, &epHandler{h: h, id: id}); err != nil {
			t.Fatal(err)
		}
	}
	return h
}

func (h *harness) connectAll() {
	for a, ep := range h.eps {
		for b := range h.eps {
			if a != b {
				ep.Connect(b)
			}
		}
	}
}

func adversarial() netsim.Options {
	o := netsim.DefaultOptions()
	return o
}

func TestDeliveryUnderAdversary(t *testing.T) {
	h := newHarness(t, 2, adversarial(), DefaultOptions())
	h.connectAll()
	seq := 0
	h.next[1] = func(ids.ID) any { seq++; return seq }
	h.sched.RunUntil(3000)
	got := h.delivered[2]
	if len(got) < 10 {
		t.Fatalf("only %d messages delivered under adversary", len(got))
	}
	// FIFO: payloads must be strictly increasing (latest-state semantics
	// may skip values but never reorder).
	for i := 1; i < len(got); i++ {
		if got[i].(int) <= got[i-1].(int) {
			t.Fatalf("reordered delivery: %v", got[:i+1])
		}
	}
}

func TestHeartbeatsFlowBothWays(t *testing.T) {
	h := newHarness(t, 2, adversarial(), DefaultOptions())
	h.connectAll()
	h.sched.RunUntil(2000)
	if h.heartbeats[1] < 5 || h.heartbeats[2] < 5 {
		t.Fatalf("heartbeats = %v", h.heartbeats)
	}
}

func TestHeartbeatsStopOnCrash(t *testing.T) {
	h := newHarness(t, 2, adversarial(), DefaultOptions())
	h.connectAll()
	h.sched.RunUntil(1000)
	h.net.Crash(2)
	base := h.heartbeats[1]
	h.sched.RunUntil(3000)
	// A small number of in-flight acks may still land; the flow must stop.
	if h.heartbeats[1] > base+2 {
		t.Fatalf("heartbeats kept flowing after crash: %d -> %d", base, h.heartbeats[1])
	}
}

func TestAutoConnectOnFirstPacket(t *testing.T) {
	h := newHarness(t, 2, adversarial(), DefaultOptions())
	// Only node 1 connects; node 2 must learn the link from packets.
	h.eps[1].Connect(2)
	h.next[1] = func(ids.ID) any { return "ping" }
	h.sched.RunUntil(2000)
	if len(h.delivered[2]) == 0 {
		t.Fatal("one-sided connect did not deliver")
	}
	if !h.eps[2].Peers().Contains(1) {
		t.Fatal("receiver did not auto-establish the peer")
	}
}

func TestStalePacketsIgnored(t *testing.T) {
	h := newHarness(t, 2, adversarial(), DefaultOptions())
	h.connectAll()
	h.sched.RunUntil(500)
	// Inject stale packets with random sessions: none may be delivered.
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 50; i++ {
		h.net.InjectPacket(1, 2, Packet{
			Kind:    KindData,
			Session: uint64(rng.Int63()),
			Seq:     uint8(rng.Intn(2)),
			Payload: "STALE",
		})
	}
	h.sched.RunUntil(2000)
	for _, m := range h.delivered[2] {
		if m == "STALE" {
			t.Fatal("stale packet delivered")
		}
	}
}

func TestRecoveryFromCorruptedLinkState(t *testing.T) {
	h := newHarness(t, 2, adversarial(), DefaultOptions())
	h.connectAll()
	seq := 0
	h.next[1] = func(ids.ID) any { seq++; return seq }
	h.sched.RunUntil(1000)
	rng := newTestRng(5)
	h.eps[1].CorruptState(rng)
	h.eps[2].CorruptState(rng)
	before := len(h.delivered[2])
	h.sched.RunUntil(5000)
	if len(h.delivered[2]) <= before+5 {
		t.Fatalf("link did not recover after corruption: %d -> %d",
			before, len(h.delivered[2]))
	}
	if h.eps[1].Stats().Cleanings < 2 {
		t.Fatal("recovery should have re-cleaned the link")
	}
}

func TestGarbagePacketKindIgnored(t *testing.T) {
	h := newHarness(t, 2, adversarial(), DefaultOptions())
	h.connectAll()
	h.net.InjectPacket(1, 2, Packet{Kind: Kind(99)})
	h.sched.RunUntil(500)
	// Must not panic and must not deliver.
	for _, m := range h.delivered[2] {
		if m == nil {
			t.Fatal("garbage delivered")
		}
	}
}

func TestStrictPaperModeAckThreshold(t *testing.T) {
	opts := DefaultOptions()
	opts.AckThreshold = opts.Capacity + 1 // strict bounded-channel mode
	opts.StaleTicks = 40
	netOpts := adversarial()
	netOpts.LossProb = 0.02
	h := newHarness(t, 2, netOpts, opts)
	h.connectAll()
	seq := 0
	h.next[1] = func(ids.ID) any { seq++; return seq }
	h.sched.RunUntil(20000)
	if len(h.delivered[2]) < 3 {
		t.Fatalf("strict mode delivered only %d", len(h.delivered[2]))
	}
}

func TestNilSourceSkipsPayload(t *testing.T) {
	h := newHarness(t, 2, adversarial(), DefaultOptions())
	h.connectAll()
	// Default source returns nil: tokens circulate, nothing delivered.
	h.sched.RunUntil(2000)
	if len(h.delivered[2]) != 0 {
		t.Fatalf("nil payloads delivered: %v", h.delivered[2])
	}
	if h.heartbeats[1] == 0 {
		t.Fatal("empty tokens must still produce heartbeats")
	}
}

func TestDisconnectForgetsPeer(t *testing.T) {
	h := newHarness(t, 2, adversarial(), DefaultOptions())
	h.connectAll()
	h.eps[1].Disconnect(2)
	if h.eps[1].Peers().Contains(2) {
		t.Fatal("peer still present after Disconnect")
	}
}

func TestSelfConnectIgnored(t *testing.T) {
	h := newHarness(t, 1, adversarial(), DefaultOptions())
	h.eps[1].Connect(1)
	if h.eps[1].Peers().Size() != 0 {
		t.Fatal("self-connect created a peer")
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{
		KindClean: "CLEAN", KindCleanAck: "CLEAN-ACK",
		KindData: "DATA", KindAck: "ACK", Kind(0): "?",
	} {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

func TestManyPeers(t *testing.T) {
	h := newHarness(t, 5, adversarial(), DefaultOptions())
	h.connectAll()
	for i := 1; i <= 5; i++ {
		id := ids.ID(i)
		h.next[id] = func(ids.ID) any { return int(id) }
	}
	h.sched.RunUntil(3000)
	for i := 1; i <= 5; i++ {
		if len(h.delivered[ids.ID(i)]) < 12 {
			t.Fatalf("node %d received only %d messages", i, len(h.delivered[ids.ID(i)]))
		}
	}
}

func TestPeersFollowsConnectDisconnectAndFirstPacket(t *testing.T) {
	// Peers() is kept beside the peer table by the three calls that change
	// its keys; after any interleaving it is exactly those keys, and Tick
	// walks them in ascending order.
	rng := newTestRng(5)
	var ticked []ids.ID
	ep := NewEndpoint(Config{
		Self: 1,
		Rand: newTestRng(6),
		Send: func(to ids.ID, pkt Packet) { ticked = append(ticked, to) },
	})
	want := ids.Set{}
	for step := 0; step < 300; step++ {
		id := ids.ID(rng.Intn(9)) // 0 (invalid) and 1 (self) are refused by all three
		switch rng.Intn(3) {
		case 0:
			ep.Connect(id)
		case 1:
			ep.HandlePacket(id, Packet{Kind: KindAck})
		default:
			ep.Disconnect(id)
			want = want.Remove(id)
			id = ids.None
		}
		if id.Valid() && id != 1 {
			want = want.Add(id)
		}
		if got := ep.Peers(); !got.Equal(want) {
			t.Fatalf("step %d: Peers() = %v, want %v", step, got, want)
		}
		ticked = ticked[:0]
		ep.Tick()
		if len(ticked) != want.Size() || !ids.NewSet(ticked...).Equal(want) || !slices.IsSorted(ticked) {
			t.Fatalf("step %d: Tick sent toward %v, want each of %v once, ascending", step, ticked, want)
		}
	}
}

func TestFencedCycleReturnsNoToken(t *testing.T) {
	// A cycle in flight when the link is fenced completes on its ack but
	// returns no token; the next cycle's ack does. Packets are handed over
	// by hand, so the ack of the fenced cycle can be held back past the
	// fence as a medium holds a dead peer's last ack past its hint.
	out := map[ids.ID][]Packet{}
	beats := map[ids.ID]int{}
	eps := map[ids.ID]*Endpoint{}
	for _, id := range []ids.ID{1, 2} {
		id := id
		eps[id] = NewEndpoint(Config{
			Self: id, Opts: DefaultOptions(), Rand: newTestRng(int64(id)),
			Send:      func(to ids.ID, pkt Packet) { out[id] = append(out[id], pkt) },
			Heartbeat: func(ids.ID) { beats[id]++ },
			Source:    func(ids.ID) any { return "x" },
		})
	}
	// deliver hands every packet a sent to its peer and returns how many.
	deliver := func(a, b ids.ID) int {
		pkts := out[a]
		out[a] = nil
		for _, pkt := range pkts {
			eps[b].HandlePacket(a, pkt)
		}
		return len(pkts)
	}
	eps[1].Connect(2)
	eps[2].Connect(1)
	for i := 0; beats[1] == 0; i++ {
		if i > 100 {
			t.Fatal("the link never settled")
		}
		eps[1].Tick()
		eps[2].Tick()
		deliver(1, 2)
		deliver(2, 1)
	}
	out[1], out[2] = nil, nil

	eps[1].Tick() // a cycle toward 2
	if deliver(1, 2) == 0 {
		t.Fatal("the tick started no cycle")
	}
	ack := out[2]
	out[2] = nil
	eps[1].Fence(2)
	before, done := beats[1], eps[1].Stats().CyclesDone
	for _, pkt := range ack {
		eps[1].HandlePacket(2, pkt)
	}
	if eps[1].Stats().CyclesDone == done {
		t.Fatal("the fenced cycle's ack did not complete it")
	}
	if beats[1] != before {
		t.Fatal("the fenced cycle's ack returned a token")
	}
	eps[1].Tick()
	deliver(1, 2)
	deliver(2, 1)
	if beats[1] != before+1 {
		t.Fatalf("a cycle started after the fence returned %d tokens, want 1", beats[1]-before)
	}
}
