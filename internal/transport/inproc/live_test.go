package inproc_test

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ids"
	"repro/internal/recsa"
	"repro/internal/transport"
	"repro/internal/transport/inproc"
)

type countingHandler struct {
	received atomic.Int64
	ticks    atomic.Int64
}

func (h *countingHandler) Receive(ids.ID, any) { h.received.Add(1) }
func (h *countingHandler) Tick()               { h.ticks.Add(1) }

func fastOptions() transport.Options {
	return transport.Options{
		Capacity:  256,
		MinDelay:  0,
		MaxDelay:  200 * time.Microsecond,
		LossProb:  0,
		TickEvery: 500 * time.Microsecond,
	}
}

func TestTicksAndDelivery(t *testing.T) {
	l := inproc.New(1, fastOptions())
	defer l.Close()
	a, b := &countingHandler{}, &countingHandler{}
	if err := l.AddNode(1, a); err != nil {
		t.Fatal(err)
	}
	if err := l.AddNode(2, b); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		l.Send(1, 2, i)
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if b.received.Load() >= 20 && a.ticks.Load() > 5 {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("received=%d ticks=%d", b.received.Load(), a.ticks.Load())
}

func TestDuplicateNodeRejected(t *testing.T) {
	l := inproc.New(1, fastOptions())
	defer l.Close()
	if err := l.AddNode(1, &countingHandler{}); err != nil {
		t.Fatal(err)
	}
	if err := l.AddNode(1, &countingHandler{}); err == nil {
		t.Fatal("duplicate accepted")
	}
}

func TestCrashStopsNode(t *testing.T) {
	l := inproc.New(1, fastOptions())
	defer l.Close()
	h := &countingHandler{}
	if err := l.AddNode(1, h); err != nil {
		t.Fatal(err)
	}
	time.Sleep(5 * time.Millisecond)
	l.Crash(1)
	ticks := h.ticks.Load()
	time.Sleep(10 * time.Millisecond)
	if h.ticks.Load() > ticks+1 {
		t.Fatal("crashed node kept ticking")
	}
	l.Send(2, 1, "x")
	if h.received.Load() != 0 {
		t.Fatal("crashed node received")
	}
}

func TestInspectSerializesWithHandler(t *testing.T) {
	l := inproc.New(1, fastOptions())
	defer l.Close()
	h := &countingHandler{}
	if err := l.AddNode(1, h); err != nil {
		t.Fatal(err)
	}
	seen := int64(-1)
	if !l.Inspect(1, func() { seen = h.ticks.Load() }) {
		t.Fatal("Inspect failed")
	}
	if seen < 0 {
		t.Fatal("Inspect closure did not run")
	}
	if l.Inspect(99, func() {}) {
		t.Fatal("Inspect of unknown node succeeded")
	}
}

// TestFullStackLive brings up the complete reconfiguration stack on real
// goroutines and waits for convergence — the substrate the examples use.
func TestFullStackLive(t *testing.T) {
	l := inproc.New(7, fastOptions())
	defer l.Close()
	const n = 4
	all := ids.Range(1, n)
	nodes := make(map[ids.ID]*core.Node, n)
	for i := ids.ID(1); i <= n; i++ {
		node, err := core.NewNode(l, core.Params{Self: i, N: 16, Initial: recsa.ConfigOf(all)})
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = node
	}
	for i := ids.ID(1); i <= n; i++ {
		l.Inspect(i, func() {
			nodes[i].ConnectAll(all.Remove(i))
			nodes[i].Detector.Bootstrap(all.Remove(i))
		})
	}
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		agreed := true
		for i := ids.ID(1); i <= n; i++ {
			l.Inspect(i, func() {
				q, ok := nodes[i].Quorum()
				if !ok || !q.Equal(all) || !nodes[i].NoReco() {
					agreed = false
				}
			})
		}
		if agreed {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("live stack never converged")
}
