package inproc_test

import (
	"testing"
	"time"

	"repro/internal/ids"
	"repro/internal/transport"
	"repro/internal/transport/conformance"
	"repro/internal/transport/inproc"
)

func TestConformance(t *testing.T) {
	conformance.Run(t, conformance.Backend{
		Name: "inproc",
		New: func(t *testing.T, seed int64, opts transport.Options, _ ids.Set) conformance.Harness {
			n := inproc.New(seed, opts)
			return conformance.Harness{Net: n, Settle: time.Sleep}
		},
	})
}

// TestDuplicationCounter checks the new DupProb knob feeds the stats the
// fault-parity satellite promised.
func TestDuplicationCounter(t *testing.T) {
	opts := transport.Options{Capacity: 64, DupProb: 1, TickEvery: time.Millisecond}
	n := inproc.New(1, opts)
	defer n.Close()
	if err := n.AddNode(1, nopHandler{}); err != nil {
		t.Fatal(err)
	}
	if err := n.AddNode(2, nopHandler{}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		n.Send(1, 2, i)
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if n.Duplicated() == 10 {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("duplicated %d, want 10", n.Duplicated())
}

// TestDueTickDoesNotQueueBehindInbox floods a node whose every delivery
// takes two tick periods: a tick is due each time a delivery returns, and
// the run loop, which polls its timer before it looks at the inbox, must
// run it before the next delivery however deep the inbox is.
func TestDueTickDoesNotQueueBehindInbox(t *testing.T) {
	const every = time.Millisecond
	n := inproc.New(1, transport.Options{Capacity: 64, TickEvery: every})
	defer n.Close()
	h := &slowReceiver{cost: 2 * every}
	if err := n.AddNode(1, h); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	flooded := make(chan struct{})
	go func() {
		defer close(flooded)
		for {
			select {
			case <-stop:
				return
			default:
				n.Send(2, 1, "flood")
			}
		}
	}()
	time.Sleep(150 * every)
	close(stop)
	<-flooded
	n.Close() // no step after this: the handler may be read
	if h.received < 20 {
		t.Fatalf("only %d deliveries in 150 periods: the flood never built up", h.received)
	}
	if h.inARow > 1 {
		t.Fatalf("%d deliveries in a row with a tick due (%d deliveries, %d ticks)", h.inARow, h.received, h.ticks)
	}
}

// slowReceiver takes cost per delivery and keeps the longest run of
// deliveries that no tick interrupted.
type slowReceiver struct {
	cost              time.Duration
	received, ticks   int
	sinceTick, inARow int
}

func (h *slowReceiver) Receive(ids.ID, any) {
	time.Sleep(h.cost)
	h.received++
	if h.sinceTick++; h.sinceTick > h.inARow {
		h.inARow = h.sinceTick
	}
}

func (h *slowReceiver) Tick() { h.ticks++; h.sinceTick = 0 }

type nopHandler struct{}

func (nopHandler) Receive(ids.ID, any) {}
func (nopHandler) Tick()               {}
