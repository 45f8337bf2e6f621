package netsim

import (
	"math/rand"
	"testing"

	"repro/internal/ids"
	"repro/internal/sim"
)

type recorder struct {
	received []any
	froms    []ids.ID
	ticks    int
}

func (r *recorder) Receive(from ids.ID, payload any) {
	r.received = append(r.received, payload)
	r.froms = append(r.froms, from)
}
func (r *recorder) Tick() { r.ticks++ }

func reliable() Options {
	return Options{Capacity: 100, MinDelay: 1, MaxDelay: 1, TickEvery: 10}
}

func newPair(t *testing.T, opts Options) (*sim.Scheduler, *Network, *recorder, *recorder) {
	t.Helper()
	sched := sim.NewScheduler(1)
	net := New(sched, opts)
	a, b := &recorder{}, &recorder{}
	if err := net.AddNode(1, a); err != nil {
		t.Fatal(err)
	}
	if err := net.AddNode(2, b); err != nil {
		t.Fatal(err)
	}
	return sched, net, a, b
}

func TestDelivery(t *testing.T) {
	sched, net, _, b := newPair(t, reliable())
	net.Send(1, 2, "hello")
	sched.RunUntil(10)
	if len(b.received) != 1 || b.received[0] != "hello" || b.froms[0] != 1 {
		t.Fatalf("received %v from %v", b.received, b.froms)
	}
}

func TestDuplicateRegistration(t *testing.T) {
	sched := sim.NewScheduler(1)
	net := New(sched, reliable())
	if err := net.AddNode(1, &recorder{}); err != nil {
		t.Fatal(err)
	}
	if err := net.AddNode(1, &recorder{}); err == nil {
		t.Fatal("duplicate AddNode must fail")
	}
}

func TestTicking(t *testing.T) {
	sched, _, a, _ := newPair(t, reliable())
	sched.RunUntil(100)
	if a.ticks < 9 || a.ticks > 11 {
		t.Fatalf("ticks = %d, want ~10", a.ticks)
	}
}

func TestCrashStopsEverything(t *testing.T) {
	sched, net, _, b := newPair(t, reliable())
	sched.RunUntil(50)
	net.Crash(2)
	ticksAt := b.ticks
	net.Send(1, 2, "x")
	sched.RunUntil(200)
	if len(b.received) != 0 {
		t.Fatal("crashed node received a packet")
	}
	if b.ticks != ticksAt {
		t.Fatal("crashed node kept ticking")
	}
	if !net.Crashed(2) || net.Crashed(1) {
		t.Fatal("Crashed() wrong")
	}
	if !net.Alive().Equal(ids.NewSet(1)) {
		t.Fatalf("Alive() = %v", net.Alive())
	}
}

func TestCapacityBound(t *testing.T) {
	opts := reliable()
	opts.Capacity = 3
	opts.MinDelay, opts.MaxDelay = 100, 100 // keep packets in flight
	sched, net, _, b := newPair(t, opts)
	for i := 0; i < 10; i++ {
		net.Send(1, 2, i)
	}
	if got := net.InFlight(1, 2); got != 3 {
		t.Fatalf("InFlight = %d, want 3", got)
	}
	sched.RunUntil(1000)
	if len(b.received) != 3 {
		t.Fatalf("delivered %d, want 3 (capacity)", len(b.received))
	}
	if net.Stats().DroppedBy.Capacity != 7 {
		t.Fatalf("capacity drops = %d, want 7", net.Stats().DroppedBy.Capacity)
	}
}

func TestLoss(t *testing.T) {
	opts := reliable()
	opts.LossProb = 1.0
	sched, net, _, b := newPair(t, opts)
	for i := 0; i < 20; i++ {
		net.Send(1, 2, i)
	}
	sched.RunUntil(100)
	if len(b.received) != 0 {
		t.Fatalf("lossy link delivered %d packets", len(b.received))
	}
}

func TestFairCommunication(t *testing.T) {
	// A packet sent repeatedly under loss < 1 is eventually received.
	opts := reliable()
	opts.LossProb = 0.9
	sched, net, _, b := newPair(t, opts)
	for i := 0; i < 200; i++ {
		net.Send(1, 2, "retry")
	}
	sched.RunUntil(1000)
	if len(b.received) == 0 {
		t.Fatal("fair communication violated: nothing delivered")
	}
}

func TestDuplication(t *testing.T) {
	opts := reliable()
	opts.DupProb = 1.0
	sched, net, _, b := newPair(t, opts)
	net.Send(1, 2, "x")
	sched.RunUntil(100)
	if len(b.received) != 2 {
		t.Fatalf("delivered %d, want 2 (duplicated)", len(b.received))
	}
}

func TestReordering(t *testing.T) {
	opts := reliable()
	opts.MinDelay, opts.MaxDelay = 1, 50
	sched, net, _, b := newPair(t, opts)
	for i := 0; i < 50; i++ {
		net.Send(1, 2, i)
	}
	sched.RunUntil(1000)
	inOrder := true
	for i := 1; i < len(b.received); i++ {
		if b.received[i].(int) < b.received[i-1].(int) {
			inOrder = false
		}
	}
	if inOrder {
		t.Fatal("wide delay spread should reorder packets")
	}
}

func TestCut(t *testing.T) {
	sched, net, a, b := newPair(t, reliable())
	net.SetCut(1, 2, true)
	net.Send(1, 2, "x")
	net.Send(2, 1, "y")
	sched.RunUntil(100)
	if len(b.received)+len(a.received) != 0 {
		t.Fatal("cut link delivered")
	}
	net.SetCut(1, 2, false)
	net.Send(1, 2, "x")
	sched.RunUntil(200)
	if len(b.received) != 1 {
		t.Fatal("restored link did not deliver")
	}
}

func TestInjectPacket(t *testing.T) {
	sched, net, _, b := newPair(t, reliable())
	net.InjectPacket(1, 2, "stale")
	sched.RunUntil(100)
	if len(b.received) != 1 || b.received[0] != "stale" {
		t.Fatalf("injection failed: %v", b.received)
	}
	if net.Stats().Injected != 1 {
		t.Fatal("injection not counted")
	}
}

func TestSendFromCrashedDropped(t *testing.T) {
	sched, net, _, b := newPair(t, reliable())
	net.Crash(1)
	net.Send(1, 2, "x")
	sched.RunUntil(100)
	if len(b.received) != 0 {
		t.Fatal("crashed sender delivered")
	}
}

func TestStatsAccounting(t *testing.T) {
	sched, net, _, _ := newPair(t, reliable())
	for i := 0; i < 5; i++ {
		net.Send(1, 2, i)
	}
	sched.RunUntil(100)
	st := net.Stats()
	if st.Sent != 5 || st.Delivered != 5 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestAliveFollowsAddNodeAndCrash(t *testing.T) {
	// Alive() is cached between the two calls that change it; after any
	// interleaving of them it is the set of registered, non-crashed nodes.
	rng := rand.New(rand.NewSource(7))
	net := New(sim.NewScheduler(1), reliable())
	want := ids.Set{}
	if !net.Alive().Empty() {
		t.Fatalf("empty network has alive nodes %v", net.Alive())
	}
	for step := 0; step < 200; step++ {
		id := ids.ID(1 + rng.Intn(12))
		if rng.Intn(3) > 0 {
			if err := net.AddNode(id, &recorder{}); err == nil {
				want = want.Add(id)
			} // a duplicate registration changes nothing, a crashed node stays crashed
		} else {
			net.Crash(id)
			want = want.Remove(id)
		}
		if got := net.Alive(); !got.Equal(want) {
			t.Fatalf("step %d: Alive() = %v, want %v", step, got, want)
		}
	}
}
