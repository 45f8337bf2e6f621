package tcp

import (
	"net"
	"os"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/ids"
	"repro/internal/transport"
)

// hintHandler counts deliveries and passes every PeerDown on; gate, when
// armed, holds the node's goroutine inside its next tick.
type hintHandler struct {
	received atomic.Int64
	downs    chan ids.ID
	hold     atomic.Bool
	held     chan struct{} // receives once a tick is being held
	gate     chan struct{} // closed to let the held tick return
}

func newHintHandler() *hintHandler {
	return &hintHandler{
		downs: make(chan ids.ID, 16), // more than any test provokes
		held:  make(chan struct{}, 1),
		gate:  make(chan struct{}),
	}
}

func (h *hintHandler) Receive(ids.ID, any) { h.received.Add(1) }

func (h *hintHandler) Tick() {
	if h.hold.CompareAndSwap(true, false) {
		h.held <- struct{}{}
		<-h.gate
	}
}

func (h *hintHandler) PeerDown(p ids.ID) { h.downs <- p }

var _ transport.PeerDownHandler = (*hintHandler)(nil)

func testConfig(t *testing.T, nodes ...ids.ID) Config {
	t.Helper()
	addrs, err := FreeAddrs(nodes...)
	if err != nil {
		t.Fatal(err)
	}
	return Config{Addrs: addrs, Seed: 1, Opts: transport.Options{Capacity: 64, TickEvery: time.Millisecond}}
}

// eventually polls cond for up to budget.
func eventually(budget time.Duration, cond func() bool) bool {
	for deadline := time.Now().Add(budget); time.Now().Before(deadline); time.Sleep(200 * time.Microsecond) {
		if cond() {
			return true
		}
	}
	return cond()
}

// reach sends from→to on a until the receiving handler has a delivery: a's
// link toward to is then established.
func reach(t *testing.T, a *Net, from, to ids.ID, rx *hintHandler) {
	t.Helper()
	if !eventually(10*time.Second, func() bool {
		a.Send(from, to, "ping")
		return rx.received.Load() > 0
	}) {
		t.Fatalf("%v never reached %v", from, to)
	}
}

func noHint(t *testing.T, h *hintHandler, wait time.Duration, why string) {
	t.Helper()
	select {
	case p := <-h.downs:
		t.Fatalf("PeerDown(%v) %s", p, why)
	case <-time.After(wait):
	}
}

// TestPeerDownWhenPeerProcessDies: a peer process goes away, sockets and
// listener with it; every local node hears about it at once.
func TestPeerDownWhenPeerProcessDies(t *testing.T) {
	cfg := testConfig(t, 1, 2, 3)
	a, b := New(cfg), New(cfg)
	defer a.Close()
	defer b.Close()
	h1, h3, h2 := newHintHandler(), newHintHandler(), newHintHandler()
	for id, h := range map[ids.ID]*hintHandler{1: h1, 3: h3} {
		if err := a.AddNode(id, h); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.AddNode(2, h2); err != nil {
		t.Fatal(err)
	}
	reach(t, a, 1, 2, h2)
	noHint(t, h1, 20*time.Millisecond, "while the peer was up")

	b.Close()
	for id, h := range map[ids.ID]*hintHandler{1: h1, 3: h3} {
		select {
		case p := <-h.downs:
			if p != 2 {
				t.Fatalf("node %v: PeerDown(%v), want 2", id, p)
			}
		case <-time.After(100 * time.Millisecond):
			t.Fatalf("node %v: no PeerDown within 100ms of the peer's death", id)
		}
	}
	// One loss, one report: the failed dials that follow say nothing new.
	for i := 0; i < 50; i++ {
		a.Send(1, 2, "anyone?")
		time.Sleep(2 * time.Millisecond)
	}
	noHint(t, h1, 0, "repeated for a peer already reported")
}

// TestNoPeerDownWhileBooting: a peer that was never reached is not
// reported, however many dials fail.
func TestNoPeerDownWhileBooting(t *testing.T) {
	cfg := testConfig(t, 1, 2)
	cfg.RedialBackoff = time.Millisecond
	a := New(cfg)
	defer a.Close()
	h1 := newHintHandler()
	if err := a.AddNode(1, h1); err != nil {
		t.Fatal(err)
	}
	if !eventually(10*time.Second, func() bool {
		a.Send(1, 2, "are you up yet?")
		return a.Stats().Redials >= 5
	}) {
		t.Fatalf("only %d failed dials", a.Stats().Redials)
	}
	noHint(t, h1, 20*time.Millisecond, "for a peer that was never up")
}

// TestBrokenConnectionRedialsAtOnce: the peer drops the connection but
// still listens. The link notices without having to write, redials without
// waiting out RedialBackoff — which only a failed dial starts — and, the
// dial having succeeded, reports nothing.
func TestBrokenConnectionRedialsAtOnce(t *testing.T) {
	cfg := testConfig(t, 1, 2)
	cfg.RedialBackoff = time.Hour
	ln, err := net.Listen("tcp", cfg.Addrs[2])
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn)
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			accepted <- c
		}
	}()
	a := New(cfg)
	defer a.Close()
	h1 := newHintHandler()
	if err := a.AddNode(1, h1); err != nil {
		t.Fatal(err)
	}
	a.Send(1, 2, "hello")
	var first net.Conn
	select {
	case first = <-accepted:
	case <-time.After(10 * time.Second):
		t.Fatal("the link never dialed")
	}
	first.Close()
	select {
	case second := <-accepted:
		defer second.Close()
	case <-time.After(100 * time.Millisecond):
		t.Fatal("no redial within 100ms of the connection breaking")
	}
	if r := a.Stats().Redials; r != 0 {
		t.Fatalf("%d failed dials, want none", r)
	}
	noHint(t, h1, 20*time.Millisecond, "though the redial succeeded")
}

// TestPeerDownDroppedWhenInboxFull: a node that is not draining its inbox
// misses the hint; the link neither waits for it nor stops working.
func TestPeerDownDroppedWhenInboxFull(t *testing.T) {
	cfg := testConfig(t, 1, 2)
	cfg.Opts.Capacity = 1
	a, b := New(cfg), New(cfg)
	defer a.Close()
	defer b.Close()
	h1, h2 := newHintHandler(), newHintHandler()
	if err := a.AddNode(1, h1); err != nil {
		t.Fatal(err)
	}
	if err := b.AddNode(2, h2); err != nil {
		t.Fatal(err)
	}
	reach(t, a, 1, 2, h2)

	h1.hold.Store(true)
	<-h1.held
	n1 := a.node(1)
	if !n1.loop.Deliver(2, "takes the one inbox slot") || n1.loop.Deliver(2, "finds it taken") {
		t.Fatal("the inbox does not hold exactly one item")
	}

	b.Close()
	if !eventually(10*time.Second, func() bool { return a.Stats().Redials >= 1 }) {
		t.Fatal("the link never redialed")
	}
	// The link is past the hint once it takes the next frame — which it
	// drops, the peer being down.
	dropped := a.Stats().Dropped
	a.Send(1, 2, "still there?")
	if !eventually(10*time.Second, func() bool { return a.Stats().Dropped > dropped }) {
		t.Fatal("the link stopped taking frames: it is blocked on the full inbox")
	}

	close(h1.gate)
	if !a.Inspect(1, func() {}) {
		t.Fatal("the node did not resume")
	}
	noHint(t, h1, 0, "delivered although the inbox was full")
}

// TestParkedReadersEndWithTheirLinks: the read each link parks on its
// connection ends when the peer goes, when the peer's node is crashed and
// when the transport closes — no goroutine and no descriptor is left.
func TestParkedReadersEndWithTheirLinks(t *testing.T) {
	goroutines := runtime.NumGoroutine()
	files, counted := openFiles()
	for round := 0; round < 3; round++ {
		cfg := testConfig(t, 1, 2)
		a, b := New(cfg), New(cfg)
		h1, h2 := newHintHandler(), newHintHandler()
		if err := a.AddNode(1, h1); err != nil {
			t.Fatal(err)
		}
		if err := b.AddNode(2, h2); err != nil {
			t.Fatal(err)
		}
		reach(t, a, 1, 2, h2)
		reach(t, b, 2, 1, h1)
		switch round {
		case 0: // both links up, readers parked
		case 1:
			b.Crash(2)
			<-h1.downs
		case 2:
			b.Close()
			<-h1.downs
		}
		a.Close()
		b.Close()
	}
	if !eventually(2*time.Second, func() bool { return runtime.NumGoroutine() <= goroutines }) {
		t.Errorf("%d goroutines before, %d after Close", goroutines, runtime.NumGoroutine())
	}
	if after, _ := openFiles(); counted && after > files {
		t.Errorf("%d open files before, %d after Close", files, after)
	}
}

// openFiles counts the process's open descriptors, where the platform
// lists them; ok is false elsewhere.
func openFiles() (n int, ok bool) {
	ents, err := os.ReadDir("/proc/self/fd")
	return len(ents), err == nil
}
