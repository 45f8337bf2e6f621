package transport

import (
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/ids"
)

// runLoop builds a node's loop and starts it; the returned channel is
// closed once Run has returned.
func runLoop(h Handler, opts Options) (*Loop, <-chan struct{}) {
	l := NewLoop(h, opts, rand.New(rand.NewSource(1)))
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		l.Run()
	}()
	return l, exited
}

// TestLoopDueTickDoesNotQueueBehindInbox floods a node whose every delivery
// takes two tick periods: a tick is due each time a delivery returns, and
// the loop, which polls its timer before it looks at the inbox, must run it
// before the next delivery however deep the inbox is.
func TestLoopDueTickDoesNotQueueBehindInbox(t *testing.T) {
	const every = time.Millisecond
	h := &slowReceiver{cost: 2 * every}
	l, exited := runLoop(h, Options{Capacity: 64, TickEvery: every})
	stop := make(chan struct{})
	flooded := make(chan struct{})
	go func() {
		defer close(flooded)
		for {
			select {
			case <-stop:
				return
			default:
				l.Deliver(2, "flood")
			}
		}
	}()
	time.Sleep(150 * every)
	close(stop)
	<-flooded
	l.Stop()
	<-exited // no step after this: the handler may be read
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

// heldTicker parks its node inside the first tick until gate closes.
type heldTicker struct {
	held chan struct{}
	gate chan struct{}
}

func (h *heldTicker) Receive(ids.ID, any) {}

func (h *heldTicker) Tick() {
	select {
	case h.held <- struct{}{}:
		<-h.gate
	default:
	}
}

// TestLoopPendingSliceRequestEndsWithItsNode: an end-of-slice request that
// is still waiting when its node is stopped never runs — the slice it was
// waiting on was the node's last — and holds no goroutine.
func TestLoopPendingSliceRequestEndsWithItsNode(t *testing.T) {
	goroutines := runtime.NumGoroutine()
	var ran atomic.Int64
	h := &heldTicker{held: make(chan struct{}), gate: make(chan struct{})}
	l, exited := runLoop(h, Options{Capacity: 64, TickEvery: time.Millisecond})
	<-h.held // the node is inside a tick
	if !l.AfterSlice(func() { ran.Add(1) }) {
		t.Fatal("a running node refused an end-of-slice request")
	}
	if l.AfterSlice(func() { ran.Add(1) }) {
		t.Fatal("a second request was accepted while the first was waiting")
	}
	l.Stop()
	close(h.gate)
	<-exited
	if n := ran.Load(); n != 0 {
		t.Errorf("%d end-of-slice requests ran on a stopped node", n)
	}
	if !settled(goroutines) {
		t.Errorf("%d goroutines before, %d after Run returned", goroutines, runtime.NumGoroutine())
	}
}
