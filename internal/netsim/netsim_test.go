package netsim

import (
	"math/rand"
	"slices"
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

// tally is a handler that allocates nothing.
type tally struct{ received int }

func (c *tally) Receive(ids.ID, any) { c.received++ }
func (c *tally) Tick()               {}

func TestSendAndDeliveryAllocateNothing(t *testing.T) {
	// A packet in flight is an event by value and a delivery record from
	// the free list: once both have grown, a Send and its delivery of a
	// payload the caller has already boxed allocate nothing, duplicates
	// included.
	opts := DefaultOptions()
	opts.DupProb = 0.5
	sched := sim.NewScheduler(1)
	net := New(sched, opts)
	rx := &tally{}
	if err := net.AddNode(1, &tally{}); err != nil {
		t.Fatal(err)
	}
	if err := net.AddNode(2, rx); err != nil {
		t.Fatal(err)
	}
	var payload any = "boxed once"
	period := func() {
		net.Send(1, 2, payload)
		sched.RunUntil(sched.Now() + 1)
	}
	for i := 0; i < 1000; i++ {
		period()
	}
	if got := testing.AllocsPerRun(500, period); got > 0 {
		t.Fatalf("a Send and its delivery allocate %.0f objects, ceiling 0", got)
	}
	if rx.received == 0 {
		t.Fatal("nothing was delivered")
	}
}

func TestUnregisteredAndLateDestinations(t *testing.T) {
	// Toward an identifier no node is registered under — ids.None, or a
	// node that registers only later — a packet takes its link's capacity
	// and the adversary's draws as it would toward a registered node. At
	// delivery it is dropped, unless the node has registered meanwhile: then
	// the node receives it.
	opts := DefaultOptions()
	opts.Capacity = 2
	opts.LossProb, opts.DupProb = 0, 0 // drawn all the same
	opts.TickJitter = 0                // a timer draws nothing
	run := func(early bool) (*sim.Scheduler, *Network, *recorder) {
		sched, net, _, _ := newPair(t, opts)
		p9 := &recorder{}
		if early {
			if err := net.AddNode(9, p9); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 3; i++ {
			net.Send(1, 9, i)
			net.Send(1, ids.None, i)
		}
		if net.InFlight(1, 9) != 2 || net.InFlight(1, ids.None) != 2 {
			t.Fatalf("in flight: %d toward p9, %d toward None; want the capacity, 2",
				net.InFlight(1, 9), net.InFlight(1, ids.None))
		}
		if !early {
			if err := net.AddNode(9, p9); err != nil {
				t.Fatal(err)
			}
		}
		sched.RunUntil(sched.Now() + 20)
		return sched, net, p9
	}
	lateSched, late, lateP9 := run(false)
	earlySched, early, earlyP9 := run(true)
	if a, b := lateSched.Rand().Int63(), earlySched.Rand().Int63(); a != b {
		t.Fatal("sends toward an unregistered node drew differently from sends toward a registered one")
	}
	if got, want := late.Stats(), early.Stats(); got != want {
		t.Fatalf("stats %+v, registered from the start %+v", got, want)
	}
	if !slices.Equal(lateP9.received, earlyP9.received) || len(lateP9.received) != 2 {
		t.Fatalf("p9 registered late received %v, registered from the start %v", lateP9.received, earlyP9.received)
	}
	if st := late.Stats(); st.DroppedBy.Crash != 2 || st.DroppedBy.Capacity != 2 || st.Delivered != 2 {
		t.Fatalf("stats %+v: want the two packets toward None dropped at delivery", st)
	}
	if late.InFlight(1, 9) != 0 || late.InFlight(1, ids.None) != 0 {
		t.Fatal("a delivery did not return its link's capacity")
	}
	if late.AddNode(-1, &recorder{}) == nil {
		t.Fatal("a negative identifier was registered")
	}
	late.Send(1, -1, "nowhere")
	if st := late.Stats(); st.DroppedBy.Crash != 3 || late.InFlight(1, -1) != 0 {
		t.Fatalf("stats %+v: a packet toward a negative identifier must be dropped at once", st)
	}
}
