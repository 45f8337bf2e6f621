package inproc

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/ids"
	"repro/internal/transport"
)

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

// TestPendingSliceRequestEndsWithItsNode: an end-of-slice request that is
// still waiting when its node is crashed, or the network closed, never runs
// — the slice it was waiting on was the node's last — and holds no goroutine.
func TestPendingSliceRequestEndsWithItsNode(t *testing.T) {
	goroutines := runtime.NumGoroutine()
	var ran atomic.Int64
	for _, stop := range []func(*Net){
		func(l *Net) { l.Crash(1) },
		func(l *Net) { go l.Close() }, // returns once the held tick has
	} {
		l := New(1, transport.Options{Capacity: 64, TickEvery: time.Millisecond})
		h := &heldTicker{held: make(chan struct{}), gate: make(chan struct{})}
		if err := l.AddNode(1, h); err != nil {
			t.Fatal(err)
		}
		<-h.held // the node is inside a tick
		if !l.AfterSlice(1, func() { ran.Add(1) }) {
			t.Fatal("a running node refused an end-of-slice request")
		}
		if l.AfterSlice(1, func() { ran.Add(1) }) {
			t.Fatal("a second request was accepted while the first was waiting")
		}
		stopped := l.Done(1)
		stop(l)
		<-stopped
		close(h.gate)
		l.Close()
	}
	if n := ran.Load(); n != 0 {
		t.Errorf("%d end-of-slice requests ran on a stopped node", n)
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > goroutines && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if now := runtime.NumGoroutine(); now > goroutines {
		t.Errorf("%d goroutines before, %d after Close", goroutines, now)
	}
}
